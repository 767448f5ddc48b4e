// Command doclint is the CI documentation gate. It enforces two invariants
// with nothing but the standard library:
//
//  1. Every exported identifier in the audited packages carries a doc
//     comment (go/ast over the non-test sources; methods on unexported
//     types are exempt, as are generated files).
//  2. Every relative markdown link in README.md and docs/ resolves to a
//     file that exists (anchors and external URLs are not checked).
//
// Usage:
//
//	doclint [-root dir]
//
// Exit status 1 lists every violation; 0 means the docs are clean.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// auditedPackages are the directories whose exported surface must be fully
// documented. Grown deliberately: add a package here once its godoc is
// clean, and doclint keeps it that way.
var auditedPackages = []string{
	"internal/ccc",
	"internal/ccd",
	"internal/cluster",
	"internal/cpg",
	"internal/editdist",
	"internal/loadgen",
	"internal/ngram",
	"internal/query",
	"internal/remote",
	"internal/serve",
	"internal/service",
	"internal/service/api",
	"internal/slab",
	"internal/trace",
}

// markdownRoots are the files and directories whose relative links must
// resolve.
var markdownRoots = []string{"README.md", "docs"}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var problems []string
	for _, pkg := range auditedPackages {
		problems = append(problems, lintPackage(*root, pkg)...)
	}
	problems = append(problems, lintMarkdown(*root)...)

	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doclint: ok")
}

// lintPackage reports every exported identifier in dir lacking a doc
// comment.
func lintPackage(root, dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}

	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		rel, _ := filepath.Rel(root, p.Filename)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", rel, p.Line, what, name))
	}

	for _, pkg := range pkgs {
		// Track which types are exported so methods on unexported types
		// (an exported method on an unexported receiver is not godoc
		// surface) can be exempted.
		exportedType := map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() {
						exportedType[ts.Name.Name] = true
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if d.Recv != nil {
						if rt := receiverTypeName(d.Recv); rt != "" && !exportedType[rt] {
							continue
						}
						report(d.Pos(), "method", receiverTypeName(d.Recv)+"."+d.Name.Name)
						continue
					}
					report(d.Pos(), "function", d.Name.Name)
				case *ast.GenDecl:
					problems = append(problems, lintGenDecl(fset, root, d)...)
				}
			}
		}
	}
	return problems
}

// lintGenDecl handles type/var/const declarations: a doc comment on the
// grouped declaration covers every name inside it, matching godoc's
// rendering.
func lintGenDecl(fset *token.FileSet, root string, d *ast.GenDecl) []string {
	if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
		return nil
	}
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		rel, _ := filepath.Rel(root, p.Filename)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", rel, p.Line, what, name))
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(name.Pos(), strings.ToLower(d.Tok.String()), name.Name)
				}
			}
		}
	}
	return problems
}

// receiverTypeName extracts the bare type name from a method receiver.
func receiverTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// mdLink matches inline markdown links; external schemes and pure anchors
// are filtered by the caller.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// lintMarkdown reports every relative link in the markdown roots that does
// not resolve to an existing file.
func lintMarkdown(root string) []string {
	var files []string
	for _, r := range markdownRoots {
		p := filepath.Join(root, r)
		fi, err := os.Stat(p)
		if err != nil {
			files = nil
			return []string{fmt.Sprintf("%s: %v", r, err)}
		}
		if !fi.IsDir() {
			files = append(files, p)
			continue
		}
		_ = filepath.WalkDir(p, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return err
		})
	}

	var problems []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		rel, _ := filepath.Rel(root, f)
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(f), target)); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", rel, m[1]))
			}
		}
	}
	return problems
}
