package cpg

import (
	"strings"

	"repro/internal/solidity"
)

// Build translates a parsed source unit into a complete CPG: it infers
// missing outer declarations for snippets, expands modifiers, constructs the
// syntax layer, resolves references and call targets, and runs the EOG and
// DFG passes.
func Build(src string, unit *solidity.SourceUnit) *Graph {
	return buildInto(NewGraph(), src, unit)
}

func buildInto(g *Graph, src string, unit *solidity.SourceUnit) *Graph {
	b := newBuilder(g, src)
	b.build(solidity.Infer(unit))
	g.Index()
	return g
}

// Parse parses src with the fuzzy snippet grammar and builds its CPG.
// The returned error reflects parse problems; a graph is built from whatever
// could be parsed. The syntax tree is released once the graph is built: a
// graph holds only strings and positions, never a tree node. Release the
// graph once done with it.
func Parse(src string) (*Graph, error) {
	unit, err := solidity.Parse(src)
	g := Build(src, unit)
	unit.Release()
	return g, err
}

// contractInfo collects per-contract context for resolution.
type contractInfo struct {
	decl   *solidity.ContractDecl
	node   *Node
	fields map[string]*Node
	funcs  map[string]*funcInfo
	mods   map[string]*solidity.ModifierDecl
	bases  []string
}

type funcInfo struct {
	decl *solidity.FunctionDecl
	node *Node
	// returns collects the ReturnStatement nodes for RETURNS edges.
	returns []*Node
}

// scope is a lexical scope for local declarations.
type scope struct {
	parent *scope
	vars   map[string]*Node
}

func (s *scope) lookup(name string) *Node {
	for cur := s; cur != nil; cur = cur.parent {
		if n, ok := cur.vars[name]; ok {
			return n
		}
	}
	return nil
}

func (s *scope) declare(name string, n *Node) {
	if name != "" {
		s.vars[name] = n
	}
}

type builder struct {
	g   *Graph
	src string

	contracts map[string]*contractInfo
	order     []*contractInfo

	cur   *contractInfo
	curFn *funcInfo
	scope *scope
	// noInfer suppresses field inference while building callee identifiers.
	noInfer bool

	// exprNode maps (expanded) AST nodes to their CPG nodes for the passes.
	exprNode map[solidity.Node]*Node
	// rollbackOf maps require/assert call nodes to their Rollback successor.
	rollbackOf map[*Node]*Node
	// pendingCalls collects calls to resolve INVOKES/RETURNS after all
	// functions exist.
	pendingCalls []pendingCall
	// builtFns records each function with its expanded body for the passes.
	builtFns []builtFn
}

type pendingCall struct {
	node     *Node
	contract *contractInfo
	name     string
	baseName string // receiver name for qualified calls ("lib.f()"), "" otherwise
	args     []*Node
}

type builtFn struct {
	info *funcInfo
	body *solidity.Block // after modifier expansion; nil for bodyless fns
}

func newBuilder(g *Graph, src string) *builder {
	return &builder{
		g:          g,
		src:        src,
		contracts:  make(map[string]*contractInfo),
		exprNode:   make(map[solidity.Node]*Node),
		rollbackOf: make(map[*Node]*Node),
	}
}

// snippet extracts the raw source text of a node span.
func (b *builder) snippet(n solidity.Node) string {
	s, e := n.Pos().Offset, n.End().Offset
	if s < 0 || s >= len(b.src) || e <= s {
		return ""
	}
	if e > len(b.src) {
		e = len(b.src)
	}
	return b.src[s:e]
}

func (b *builder) build(unit *solidity.SourceUnit) {
	root := b.g.NewNode(LTranslationUnit)
	b.g.Root = root

	// Pre-pass: register contracts and their members so that references and
	// calls across contracts in the same unit resolve.
	for _, d := range unit.Decls {
		c, ok := d.(*solidity.ContractDecl)
		if !ok {
			continue
		}
		ci := &contractInfo{
			decl:   c,
			fields: make(map[string]*Node),
			funcs:  make(map[string]*funcInfo),
			mods:   make(map[string]*solidity.ModifierDecl),
			bases:  c.Bases,
		}
		b.contracts[c.Name] = ci
		b.order = append(b.order, ci)
	}

	// Declare records, fields, functions and modifiers.
	for _, ci := range b.order {
		b.declareContract(ci)
		b.g.Edge(root, AST, ci.node)
	}

	// Build function bodies.
	for _, ci := range b.order {
		b.cur = ci
		for _, part := range ci.decl.Parts {
			if fn, ok := part.(*solidity.FunctionDecl); ok {
				b.buildFunctionBody(ci, fn)
			}
		}
	}
	b.cur = nil

	// Resolve calls (INVOKES/RETURNS + parameter data flow).
	b.resolveCalls()

	// Passes.
	for _, bf := range b.builtFns {
		b.eogFunction(bf)
	}
	b.finishReturns()
	for _, bf := range b.builtFns {
		b.dfgFunction(bf)
	}
}

func (b *builder) declareContract(ci *contractInfo) {
	c := ci.decl
	rec := b.g.NewNode(LRecordDeclaration)
	rec.LocalName = c.Name
	rec.Kind = c.Kind.String()
	rec.Code = b.snippet(c)
	rec.Pos = c.Pos()
	rec.Inferred = c.Inferred
	ci.node = rec

	for _, part := range c.Parts {
		switch x := part.(type) {
		case *solidity.StateVarDecl:
			f := b.g.NewNode(LFieldDeclaration)
			f.LocalName = x.Name
			f.Code = b.snippet(x)
			f.TypeName = solidity.TypeString(x.Type)
			f.Pos = x.Pos()
			b.g.Edge(rec, FIELDS, f)
			b.g.Edge(rec, AST, f)
			b.attachType(f, x.Type)
			ci.fields[x.Name] = f
		case *solidity.StructDecl:
			sn := b.g.NewNode(LRecordDeclaration)
			sn.LocalName = x.Name
			sn.Kind = "struct"
			sn.Code = b.snippet(x)
			sn.Pos = x.Pos()
			b.g.Edge(rec, AST, sn)
		case *solidity.EventDecl:
			en := b.g.NewNode(LEventDeclaration)
			en.LocalName = x.Name
			en.Code = b.snippet(x)
			en.Pos = x.Pos()
			b.g.Edge(rec, AST, en)
		case *solidity.ModifierDecl:
			mn := b.g.NewNode(LModifierDeclaration)
			mn.LocalName = x.Name
			mn.Code = b.snippet(x)
			mn.Pos = x.Pos()
			b.g.Edge(rec, AST, mn)
			ci.mods[x.Name] = x
		case *solidity.FunctionDecl:
			fi := b.declareFunction(ci, x)
			b.g.Edge(rec, AST, fi.node)
		}
	}
}

func (b *builder) declareFunction(ci *contractInfo, fn *solidity.FunctionDecl) *funcInfo {
	n := b.g.NewNode(LFunctionDeclaration)
	n.LocalName = fn.Name
	n.Code = b.snippet(fn)
	n.Pos = fn.Pos()
	n.Inferred = fn.Inferred
	isCtor := fn.IsConstructor || (fn.Name != "" && fn.Name == ci.decl.Name)
	if isCtor {
		n.AddLabel(LConstructorDecl)
	}
	if fn.IsFallback || fn.IsReceive {
		n.LocalName = ""
	}
	fi := &funcInfo{decl: fn, node: n}
	key := fn.Name
	if key == "" {
		key = "()"
	}
	ci.funcs[key] = fi

	for i, p := range fn.Params {
		pn := b.g.NewNode(LParamVariableDecl)
		pn.AddLabel(LVariableDeclaration)
		pn.LocalName = p.Name
		pn.Code = solidity.TypeString(p.Type) + " " + p.Name
		pn.TypeName = solidity.TypeString(p.Type)
		pn.Index = i
		pn.Pos = p.Pos()
		b.g.Edge(n, PARAMETERS, pn)
		b.g.Edge(n, AST, pn)
		b.attachType(pn, p.Type)
		b.exprNode[p] = pn
	}
	return fi
}

func (b *builder) attachType(owner *Node, t solidity.TypeName) {
	if t == nil {
		return
	}
	tn := b.g.NewNode(LTypeNode)
	name := solidity.TypeString(t)
	tn.LocalName = baseTypeName(name)
	tn.Code = name
	if _, ok := t.(*solidity.UserType); ok {
		tn.AddLabel(LObjectType)
	}
	b.g.Edge(owner, TYPE, tn)
}

// baseTypeName reduces "address payable" to "address" and strips array
// suffixes for the localName property used in queries.
func baseTypeName(name string) string {
	name = strings.TrimSuffix(name, " payable")
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	return name
}

// buildFunctionBody expands modifiers and builds statements.
func (b *builder) buildFunctionBody(ci *contractInfo, fn *solidity.FunctionDecl) {
	key := fn.Name
	if key == "" {
		key = "()"
	}
	fi := ci.funcs[key]
	if fi == nil || fi.decl != fn {
		// Overloads share a key; declare the extra one on the fly.
		fi = b.declareFunction(ci, fn)
		b.g.Edge(ci.node, AST, fi.node)
	}
	if fn.Body == nil {
		b.builtFns = append(b.builtFns, builtFn{info: fi})
		return
	}
	body := b.expandModifiers(ci, fn)
	b.curFn = fi
	b.scope = &scope{vars: make(map[string]*Node)}
	for _, p := range fn.Params {
		b.scope.declare(p.Name, b.exprNode[p])
	}
	bodyNode := b.buildBlock(body)
	b.g.Edge(fi.node, BODY, bodyNode)
	b.g.Edge(fi.node, AST, bodyNode)
	b.curFn = nil
	b.scope = nil
	b.builtFns = append(b.builtFns, builtFn{info: fi, body: body})
}

// expandModifiers wraps the function body in the (cloned) bodies of its
// modifiers, innermost-first; every `_;` placeholder is replaced by the body
// wrapped so far. Unknown modifiers (base constructors, unresolved names)
// are skipped.
func (b *builder) expandModifiers(ci *contractInfo, fn *solidity.FunctionDecl) *solidity.Block {
	body := fn.Body
	for i := len(fn.Modifiers) - 1; i >= 0; i-- {
		md := b.lookupModifier(ci, fn.Modifiers[i].Name)
		if md == nil || md.Body == nil {
			continue
		}
		wrapped := solidity.CloneBlock(md.Body)
		replacePlaceholders(wrapped, body)
		body = wrapped
	}
	return body
}

func (b *builder) lookupModifier(ci *contractInfo, name string) *solidity.ModifierDecl {
	seen := map[string]bool{}
	var walk func(c *contractInfo) *solidity.ModifierDecl
	walk = func(c *contractInfo) *solidity.ModifierDecl {
		if c == nil || seen[c.decl.Name] {
			return nil
		}
		seen[c.decl.Name] = true
		if m, ok := c.mods[name]; ok {
			return m
		}
		for _, base := range c.bases {
			if m := walk(b.contracts[base]); m != nil {
				return m
			}
		}
		return nil
	}
	return walk(ci)
}

// replacePlaceholders substitutes every `_;` in block with stmts from body.
func replacePlaceholders(block *solidity.Block, body *solidity.Block) {
	for i, s := range block.Stmts {
		switch x := s.(type) {
		case *solidity.PlaceholderStmt:
			block.Stmts[i] = body
		case *solidity.Block:
			replacePlaceholders(x, body)
		case *solidity.IfStmt:
			replaceInStmt(&x.Then, body)
			replaceInStmt(&x.Else, body)
		case *solidity.ForStmt:
			replaceInStmt(&x.Body, body)
		case *solidity.WhileStmt:
			replaceInStmt(&x.Body, body)
		case *solidity.DoWhileStmt:
			replaceInStmt(&x.Body, body)
		case *solidity.UncheckedBlock:
			if x.Body != nil {
				replacePlaceholders(x.Body, body)
			}
		}
	}
}

func replaceInStmt(slot *solidity.Stmt, body *solidity.Block) {
	switch x := (*slot).(type) {
	case nil:
	case *solidity.PlaceholderStmt:
		*slot = body
	case *solidity.Block:
		replacePlaceholders(x, body)
	case *solidity.IfStmt:
		replaceInStmt(&x.Then, body)
		replaceInStmt(&x.Else, body)
	case *solidity.ForStmt:
		replaceInStmt(&x.Body, body)
	case *solidity.WhileStmt:
		replaceInStmt(&x.Body, body)
	case *solidity.DoWhileStmt:
		replaceInStmt(&x.Body, body)
	}
}

// lookupField resolves a field name through the inheritance chain.
func (b *builder) lookupField(ci *contractInfo, name string) *Node {
	seen := map[string]bool{}
	var walk func(c *contractInfo) *Node
	walk = func(c *contractInfo) *Node {
		if c == nil || seen[c.decl.Name] {
			return nil
		}
		seen[c.decl.Name] = true
		if f, ok := c.fields[name]; ok {
			return f
		}
		for _, base := range c.bases {
			if f := walk(b.contracts[base]); f != nil {
				return f
			}
		}
		return nil
	}
	return walk(ci)
}

// lookupFunction resolves a function name through the inheritance chain.
func (b *builder) lookupFunction(ci *contractInfo, name string) *funcInfo {
	seen := map[string]bool{}
	var walk func(c *contractInfo) *funcInfo
	walk = func(c *contractInfo) *funcInfo {
		if c == nil || seen[c.decl.Name] {
			return nil
		}
		seen[c.decl.Name] = true
		if f, ok := c.funcs[name]; ok {
			return f
		}
		for _, base := range c.bases {
			if f := walk(b.contracts[base]); f != nil {
				return f
			}
		}
		return nil
	}
	return walk(ci)
}

// resolveCalls adds INVOKES and RETURNS edges plus inter-procedural DFG for
// arguments once all functions are declared.
func (b *builder) resolveCalls() {
	for _, pc := range b.pendingCalls {
		var target *funcInfo
		if pc.baseName != "" {
			// Qualified call: resolve against a contract/library named like
			// the base if one exists in this unit.
			if ci, ok := b.contracts[pc.baseName]; ok {
				target = b.lookupFunction(ci, pc.name)
			}
		} else {
			target = b.lookupFunction(pc.contract, pc.name)
		}
		if target == nil || target.node == pc.node {
			continue
		}
		b.g.Edge(pc.node, INVOKES, target.node)
		// Argument-to-parameter data flow.
		params := target.node.Out(PARAMETERS)
		for i, arg := range pc.args {
			if i < len(params) {
				b.g.Edge(arg, DFG, params[i])
			}
		}
	}
	// RETURNS edges are added after the DFG pass has collected the return
	// statements; collect them per function node here lazily instead.
}

// finishReturns adds ReturnStatement-[:RETURNS]->CallExpression edges and
// return-value data flow once the EOG pass has recorded return nodes.
func (b *builder) finishReturns() {
	for _, pc := range b.pendingCalls {
		for _, tgt := range pc.node.Out(INVOKES) {
			for _, bf := range b.builtFns {
				if bf.info.node != tgt {
					continue
				}
				for _, ret := range bf.info.returns {
					b.g.Edge(ret, RETURNS, pc.node)
					b.g.Edge(ret, DFG, pc.node)
				}
			}
		}
	}
}
