package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"debar/tools/debarvet/analysis"
)

// GuardedBy mechanically checks the `// guarded by <mu>` field
// annotations that replaced the prose locking comments: a struct field
// annotated
//
//	sessions map[uint64]*session // guarded by mu
//
// may only be read while <mu> (a sync.Mutex or sync.RWMutex sibling
// field) is held, and only be written while it is held exclusively.
//
// The check is a conservative intra-procedural lock-state walk:
//
//   - x.mu.Lock()/RLock() add the mutex to the held set, Unlock/RUnlock
//     remove it, and `defer x.mu.Unlock()` keeps it held to function end;
//   - branches whose body terminates (return/continue/break/panic) do not
//     leak their lock-state changes into the fall-through path, and the
//     states of surviving branches are intersected;
//   - only accesses rooted at a plain identifier (receiver or local) are
//     checked — aliases through struct hops are out of scope;
//   - a method named *Locked, or any function whose doc comment carries a
//     `debarvet:holds <mu>` directive, is assumed to be entered with that
//     mutex of its receiver held exclusively (the annotation doubles as
//     the "caller must hold" contract documentation);
//   - immediately-invoked function literals inherit the caller's lock
//     state; go/defer/stored literals start from an empty one.
//
// Constructor and recovery paths that mutate a structure before it
// escapes its creating goroutine hold no lock by design; they carry a
// function-scoped `//debarvet:ignore guardedby -- ...` directive instead
// of annotations being weakened.
var GuardedBy = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "fields annotated `// guarded by <mu>` are only accessed with " +
		"that mutex held (exclusively, for writes)",
	Packages: []string{
		"debar/internal/server",
		"debar/internal/tpds",
		"debar/internal/store",
		"debar/internal/client",
		"debar/internal/chunklog",
		"debar/internal/seglog",
		"debar/internal/metastore",
		"debar/internal/diskindex",
		"debar/internal/obs",
	},
	SkipTests: true,
	Run:       runGuardedBy,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)
var holdsRe = regexp.MustCompile(`debarvet:holds ([A-Za-z_][A-Za-z0-9_]*)`)

// lockState maps a mutex key ("<varobj>.path.mu") to the strongest hold:
// 'w' exclusive, 'r' shared.
type lockState map[string]byte

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func intersect(a, b lockState) lockState {
	out := make(lockState)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			if va == 'r' || vb == 'r' {
				out[k] = 'r'
			} else {
				out[k] = 'w'
			}
		}
	}
	return out
}

func runGuardedBy(pass *analysis.Pass) error {
	g := &guardedChecker{
		pass:    pass,
		info:    pass.TypesInfo,
		guarded: collectGuards(pass),
	}
	if len(g.guarded) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(lockState)
			g.seedHolds(fd, held)
			g.walkBlock(fd.Body.List, held)
		}
	}
	return nil
}

// collectGuards maps each annotated field object to its guarding mutex
// field name, read from the struct declarations in this package.
func collectGuards(pass *analysis.Pass) map[*types.Var]string {
	guarded := make(map[*types.Var]string)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[v] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

type guardedChecker struct {
	pass    *analysis.Pass
	info    *types.Info
	guarded map[*types.Var]string
}

// seedHolds pre-populates the held set from the function's contract: a
// debarvet:holds directive, or the *Locked naming convention (which
// implies the receiver's mu).
func (g *guardedChecker) seedHolds(fd *ast.FuncDecl, held lockState) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recv := g.info.Defs[fd.Recv.List[0].Names[0]]
	if recv == nil {
		return
	}
	seed := func(mu string) { held[lockKey(recv, mu)] = 'w' }
	if fd.Doc != nil {
		for _, m := range holdsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			seed(m[1])
		}
	}
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		seed("mu")
	}
}

func lockKey(root types.Object, path string) string {
	return fmt.Sprintf("%p.%s", root, path)
}

// lockOp decodes a statement-level call like s.mu.Lock() into its key
// and operation. Returns op 0 when the call is not a mutex operation
// rooted at a plain identifier.
func (g *guardedChecker) lockOp(call *ast.CallExpr) (key string, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	// The receiver chain: root.path (e.g. s.mu, t.a.mu).
	root := rootIdent(sel.X)
	if root == nil {
		return "", ""
	}
	obj := g.info.Uses[root]
	if obj == nil {
		return "", ""
	}
	// Check the receiver really is a sync (RW)Mutex.
	if t := g.info.TypeOf(sel.X); t == nil ||
		(!isNamedType(t, "sync", "Mutex") && !isNamedType(t, "sync", "RWMutex")) {
		return "", ""
	}
	path := selectorPath(sel.X)
	if path == "" {
		return "", ""
	}
	return lockKey(obj, path), sel.Sel.Name
}

// selectorPath renders a.b.c as "b.c" (path below the root identifier).
func selectorPath(e ast.Expr) string {
	var parts []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			// reverse
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return strings.Join(parts, ".")
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		default:
			return ""
		}
	}
}

// walkBlock interprets stmts sequentially, mutating held, and reports
// guarded accesses made without the right lock. It returns true when the
// block always terminates (return/branch/panic) before falling through.
func (g *guardedChecker) walkBlock(stmts []ast.Stmt, held lockState) bool {
	for _, s := range stmts {
		if g.walkStmt(s, held) {
			return true
		}
	}
	return false
}

func (g *guardedChecker) walkStmt(s ast.Stmt, held lockState) (terminates bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if key, op := g.lockOp(call); op != "" {
				switch op {
				case "Lock":
					held[key] = 'w'
				case "RLock":
					held[key] = 'r'
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return false
			}
		}
		g.checkExpr(st.X, held)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && isPanicOrExit(g.info, call) {
			return true
		}
	case *ast.DeferStmt:
		if _, op := g.lockOp(st.Call); op == "Unlock" || op == "RUnlock" {
			return false // held to function end
		}
		g.checkAsyncCall(st.Call, held)
	case *ast.GoStmt:
		g.checkAsyncCall(st.Call, held)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			g.checkExpr(r, held)
		}
		for _, l := range st.Lhs {
			g.checkWrite(l, held)
		}
	case *ast.IncDecStmt:
		g.checkWrite(st.X, held)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			g.checkExpr(r, held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto end this path for lock-state purposes.
		return true
	case *ast.BlockStmt:
		return g.walkBlock(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			g.walkStmt(st.Init, held)
		}
		g.checkExpr(st.Cond, held)
		bodyHeld := held.clone()
		bodyTerm := g.walkBlock(st.Body.List, bodyHeld)
		elseHeld := held.clone()
		elseTerm := false
		if st.Else != nil {
			elseTerm = g.walkStmt(st.Else, elseHeld)
		}
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			replace(held, elseHeld)
		case elseTerm:
			replace(held, bodyHeld)
		default:
			replace(held, intersect(bodyHeld, elseHeld))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			g.walkStmt(st.Init, held)
		}
		if st.Cond != nil {
			g.checkExpr(st.Cond, held)
		}
		bodyHeld := held.clone()
		bodyTerm := g.walkBlock(st.Body.List, bodyHeld)
		if st.Post != nil {
			g.walkStmt(st.Post, bodyHeld)
		}
		if !bodyTerm {
			replace(held, intersect(held, bodyHeld))
		}
	case *ast.RangeStmt:
		g.checkExpr(st.X, held)
		bodyHeld := held.clone()
		if !g.walkBlock(st.Body.List, bodyHeld) {
			replace(held, intersect(held, bodyHeld))
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		g.walkCases(s, held)
	case *ast.LabeledStmt:
		return g.walkStmt(st.Stmt, held)
	case *ast.SendStmt:
		g.checkExpr(st.Chan, held)
		g.checkExpr(st.Value, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						g.checkExpr(v, held)
					}
				}
			}
		}
	}
	return false
}

func replace(dst, src lockState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func (g *guardedChecker) walkCases(s ast.Stmt, held lockState) {
	var bodies [][]ast.Stmt
	var exprs []ast.Expr
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			g.walkStmt(st.Init, held)
		}
		if st.Tag != nil {
			exprs = append(exprs, st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			exprs = append(exprs, cc.List...)
			bodies = append(bodies, cc.Body)
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			g.walkStmt(st.Init, held)
		}
		g.walkStmt(st.Assign, held)
		for _, c := range st.Body.List {
			bodies = append(bodies, c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				g.walkStmt(cc.Comm, held)
			}
			bodies = append(bodies, cc.Body)
		}
	}
	for _, e := range exprs {
		g.checkExpr(e, held)
	}
	var surviving []lockState
	for _, b := range bodies {
		h := held.clone()
		if !g.walkBlock(b, h) {
			surviving = append(surviving, h)
		}
	}
	if len(surviving) > 0 {
		acc := surviving[0]
		for _, h := range surviving[1:] {
			acc = intersect(acc, h)
		}
		replace(held, acc)
	}
}

// checkAsyncCall handles go/defer calls: the arguments evaluate now
// (under the current lock state), but a function-literal body runs
// later, when nothing can be assumed held.
func (g *guardedChecker) checkAsyncCall(call *ast.CallExpr, held lockState) {
	for _, a := range call.Args {
		g.checkExpr(a, held)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		g.walkBlock(lit.Body.List, make(lockState))
	} else {
		g.checkExpr(call.Fun, held)
	}
}

// checkExpr checks every guarded read inside e, descending into
// immediately-invoked function literals with the current lock state and
// into other literals with an empty one.
func (g *guardedChecker) checkExpr(e ast.Expr, held lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Immediately invoked? Only when e's parent call is the
			// literal itself; detect via the simple case (call.Fun == x)
			// by scanning, else analyze with empty state.
			if call, ok := immediateCall(e, x); ok {
				_ = call
				g.walkBlock(x.Body.List, held.clone())
			} else {
				g.walkBlock(x.Body.List, make(lockState))
			}
			return false
		case *ast.SelectorExpr:
			g.checkAccess(x, held, false)
			// Keep descending: x.X may itself contain guarded reads.
		case *ast.UnaryExpr:
			// &s.field leaks a reference; require exclusive hold.
			if x.Op.String() == "&" {
				if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
					g.checkAccess(sel, held, true)
				}
			}
		}
		return true
	})
}

// immediateCall reports whether lit is directly invoked inside e, i.e.
// appears as the Fun of some call expression.
func immediateCall(e ast.Expr, lit *ast.FuncLit) (*ast.CallExpr, bool) {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == lit {
			found = call
			return false
		}
		return true
	})
	return found, found != nil
}

// checkWrite checks an lvalue expression: the written field needs an
// exclusive hold; any guarded reads nested inside (index expressions,
// nested selectors) are checked as reads.
func (g *guardedChecker) checkWrite(e ast.Expr, held lockState) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		g.checkAccess(x, held, true)
		g.checkExpr(x.X, held)
	case *ast.IndexExpr:
		// m[k] = v writes through the map/slice read from its holder.
		g.checkExpr(x.X, held)
		g.checkExpr(x.Index, held)
	case *ast.StarExpr:
		g.checkExpr(x.X, held)
	default:
		g.checkExpr(e, held)
	}
}

// checkAccess validates one selector against the annotations.
func (g *guardedChecker) checkAccess(sel *ast.SelectorExpr, held lockState, write bool) {
	selInfo, ok := g.info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return
	}
	field, ok := selInfo.Obj().(*types.Var)
	if !ok {
		return
	}
	mu, guarded := g.guarded[field]
	if !guarded {
		return
	}
	root := rootIdent(sel.X)
	if root == nil {
		return // not rooted at a plain identifier: out of scope
	}
	obj := g.info.Uses[root]
	if obj == nil {
		return
	}
	parent := selectorPath(sel.X) // path from root to the struct holding the field
	muPath := mu
	if parent != "" {
		muPath = parent + "." + mu
	}
	key := lockKey(obj, muPath)
	holdsKind, holds := held[key]
	rootPath := root.Name
	if parent != "" {
		rootPath += "." + parent
	}
	switch {
	case !holds:
		verb := "reading"
		if write {
			verb = "writing"
		}
		g.pass.Reportf(sel.Sel.Pos(), "%s %s.%s (guarded by %s) without holding %s.%s",
			verb, rootPath, field.Name(), mu, rootPath, mu)
	case write && holdsKind == 'r':
		g.pass.Reportf(sel.Sel.Pos(), "writing %s.%s (guarded by %s) while holding only a read lock on %s.%s",
			rootPath, field.Name(), mu, rootPath, mu)
	}
}

func isPanicOrExit(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		fn := calleeOf(info, call)
		if fn == nil {
			return false
		}
		return isPkgFunc(fn, "os", "Exit") ||
			(fn.Pkg() != nil && fn.Pkg().Path() == "log" && strings.HasPrefix(fn.Name(), "Fatal"))
	}
	return false
}
