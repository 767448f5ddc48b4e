package ccc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoMapKeyedByNode keeps rule output independent of map order by
// construction: the detectors and the query layer hold node sets as
// cpg.NodeSet, which iterates in ID order, and per-node facts in slices
// indexed by node ID. Any map keyed by *cpg.Node in their non-test sources
// fails the test.
func TestNoMapKeyedByNode(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../query"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in %s", dir)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if m, ok := n.(*ast.MapType); ok && isNodePointer(m.Key) {
					t.Errorf("%s: map keyed by *cpg.Node; use cpg.NodeSet or a slice indexed by node ID",
						fset.Position(m.Pos()))
				}
				return true
			})
		}
	}
}

// isNodePointer reports whether e spells *cpg.Node.
func isNodePointer(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Node" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "cpg"
}
