package solidity

import (
	"sync"

	"repro/internal/slab"
)

// An arena holds one syntax tree's memory: every node but the SourceUnit,
// and every list a node holds, in chunked slabs (internal/slab). Chunks
// never move, so every node and list handed out stays valid while the tree
// lives. SourceUnit.Release clears the arena and returns it to treePool for
// the next parse; a tree never released is collected with its arena.
type arena struct {
	pragmas     slab.Slab[PragmaDirective]
	imports     slab.Slab[ImportDirective]
	contracts   slab.Slab[ContractDecl]
	stateVars   slab.Slab[StateVarDecl]
	params      slab.Slab[Param]
	functions   slab.Slab[FunctionDecl]
	modInvokes  slab.Slab[ModifierInvocation]
	modifiers   slab.Slab[ModifierDecl]
	events      slab.Slab[EventDecl]
	structs     slab.Slab[StructDecl]
	enums       slab.Slab[EnumDecl]
	usings      slab.Slab[UsingDecl]
	elementary  slab.Slab[ElementaryType]
	userTypes   slab.Slab[UserType]
	mappings    slab.Slab[MappingType]
	arrays      slab.Slab[ArrayType]
	funcTypes   slab.Slab[FunctionType]
	blocks      slab.Slab[Block]
	exprStmts   slab.Slab[ExprStmt]
	varDecls    slab.Slab[VarDecl]
	varStmts    slab.Slab[VarDeclStmt]
	ifs         slab.Slab[IfStmt]
	fors        slab.Slab[ForStmt]
	whiles      slab.Slab[WhileStmt]
	doWhiles    slab.Slab[DoWhileStmt]
	returns     slab.Slab[ReturnStmt]
	breaks      slab.Slab[BreakStmt]
	continues   slab.Slab[ContinueStmt]
	throws      slab.Slab[ThrowStmt]
	emits       slab.Slab[EmitStmt]
	deletes     slab.Slab[DeleteStmt]
	placeholder slab.Slab[PlaceholderStmt]
	assemblies  slab.Slab[AssemblyStmt]
	uncheckeds  slab.Slab[UncheckedBlock]
	tries       slab.Slab[TryStmt]
	catches     slab.Slab[CatchClause]
	idents      slab.Slab[Ident]
	numbers     slab.Slab[NumberLit]
	stringLits  slab.Slab[StringLit]
	bools       slab.Slab[BoolLit]
	members     slab.Slab[MemberAccess]
	indexes     slab.Slab[IndexAccess]
	callOpts    slab.Slab[CallOption]
	calls       slab.Slab[CallExpr]
	news        slab.Slab[NewExpr]
	typeExprs   slab.Slab[TypeExpr]
	binaries    slab.Slab[BinaryExpr]
	unaries     slab.Slab[UnaryExpr]
	conds       slab.Slab[ConditionalExpr]
	tuples      slab.Slab[TupleExpr]

	pragmaList   slab.Slab[*PragmaDirective]
	importList   slab.Slab[*ImportDirective]
	nodeList     slab.Slab[Node]
	stringList   slab.Slab[string]
	paramList    slab.Slab[*Param]
	modInvList   slab.Slab[*ModifierInvocation]
	stmtList     slab.Slab[Stmt]
	varDeclList  slab.Slab[*VarDecl]
	catchList    slab.Slab[*CatchClause]
	exprList     slab.Slab[Expr]
	callOptsList slab.Slab[*CallOption]
}

// maxPooledTree caps the bytes of an arena treePool keeps, so that one tree
// far larger than the rest does not pin its memory.
const maxPooledTree = 1 << 20

var treePool = sync.Pool{New: func() any { return new(arena) }}

// reset clears everything handed out, so that no old tree or source stays
// reachable, and returns the bytes the arena holds.
func (a *arena) reset() int {
	return a.pragmas.Reset() + a.imports.Reset() + a.contracts.Reset() +
		a.stateVars.Reset() + a.params.Reset() + a.functions.Reset() +
		a.modInvokes.Reset() + a.modifiers.Reset() + a.events.Reset() +
		a.structs.Reset() + a.enums.Reset() + a.usings.Reset() +
		a.elementary.Reset() + a.userTypes.Reset() + a.mappings.Reset() +
		a.arrays.Reset() + a.funcTypes.Reset() + a.blocks.Reset() +
		a.exprStmts.Reset() + a.varDecls.Reset() + a.varStmts.Reset() +
		a.ifs.Reset() + a.fors.Reset() + a.whiles.Reset() +
		a.doWhiles.Reset() + a.returns.Reset() + a.breaks.Reset() +
		a.continues.Reset() + a.throws.Reset() + a.emits.Reset() +
		a.deletes.Reset() + a.placeholder.Reset() + a.assemblies.Reset() +
		a.uncheckeds.Reset() + a.tries.Reset() + a.catches.Reset() +
		a.idents.Reset() + a.numbers.Reset() + a.stringLits.Reset() +
		a.bools.Reset() + a.members.Reset() + a.indexes.Reset() +
		a.callOpts.Reset() + a.calls.Reset() + a.news.Reset() +
		a.typeExprs.Reset() + a.binaries.Reset() + a.unaries.Reset() +
		a.conds.Reset() + a.tuples.Reset() +
		a.pragmaList.Reset() + a.importList.Reset() + a.nodeList.Reset() +
		a.stringList.Reset() + a.paramList.Reset() + a.modInvList.Reset() +
		a.stmtList.Reset() + a.varDeclList.Reset() + a.catchList.Reset() +
		a.exprList.Reset() + a.callOptsList.Reset()
}

// Release returns the tree's memory to the pool for the next parse. After
// it, nothing may use the unit, a node reachable from it, or a slice they
// hold; strings and positions copied out of the tree stay valid. A unit
// that is never released is collected as usual; releasing it again, or
// releasing a unit Parse did not return, is a no-op.
func (u *SourceUnit) Release() {
	if a, size := u.detach(); a != nil && size <= maxPooledTree {
		treePool.Put(a)
	}
}

// detach empties u and returns its cleared arena with the bytes it holds,
// or nil if u holds none.
func (u *SourceUnit) detach() (*arena, int) {
	a := u.arena
	if a == nil {
		return nil, 0
	}
	*u = SourceUnit{}
	return a, a.reset()
}
