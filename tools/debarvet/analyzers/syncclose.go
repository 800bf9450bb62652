package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"debar/tools/debarvet/analysis"
)

// SyncClose enforces the storage layers' fsync-before-ack discipline on
// locally opened writable files (internal/store/README.md, "Consistency
// model"): a writable *os.File must have Sync (or fsx.SyncData) called
// somewhere in the function that opens it before it is closed, and
// Close/Sync verdicts on such a file must not be discarded.
//
// The walk is conservative and intra-procedural: a file that escapes the
// opening function (stored in a struct, returned, or passed to another
// function besides fsx.SyncData) is assumed to be synced by its new
// owner and is not tracked further. A bare `defer f.Close()` is accepted
// only as the error-path backstop of the open/write/sync/close idiom —
// that is, when the same function also checks an explicit Close error.
var SyncClose = &analysis.Analyzer{
	Name: "syncclose",
	Doc: "writable *os.File on a durable path must Sync before Close, " +
		"and Close/Sync errors must not be discarded",
	Packages: []string{
		"debar/internal/store",
		"debar/internal/chunklog",
		"debar/internal/seglog",
		"debar/internal/metastore",
		"debar/internal/diskindex",
	},
	SkipTests: true,
	Run:       runSyncClose,
}

func runSyncClose(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSyncClose(pass, fd.Body)
		}
	}
	return nil
}

// fileUse records every relevant use of one tracked writable file.
type fileUse struct {
	open         token.Pos
	escaped      bool
	syncs        int  // f.Sync() / fsx.SyncData(f) calls
	checkedClose bool // a Close whose error reaches a non-blank name
	// discards to report (filled during the walk):
	bareCloses  []token.Pos // plain `f.Close()` statement
	deferCloses []token.Pos // `defer f.Close()`
	blankOps    []token.Pos // `_ = f.Close()` / `_ = f.Sync()`
	firstClose  token.Pos
}

func checkSyncClose(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	tracked := make(map[*types.Var]*fileUse)

	// Pass 1: find writable opens assigned to local variables.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isWritableOpen(info, call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj, _ := info.Defs[id].(*types.Var)
		if obj == nil {
			obj, _ = info.Uses[id].(*types.Var)
		}
		if obj != nil {
			tracked[obj] = &fileUse{open: call.Pos()}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	// Pass 2: classify every use with parent context.
	walkWithStack(body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj, _ := info.Uses[id].(*types.Var)
		u := tracked[obj]
		if u == nil {
			return
		}
		classifyFileUse(info, id, stack, u)
	})

	for _, u := range tracked {
		if u.escaped {
			continue
		}
		if u.firstClose != token.NoPos && u.syncs == 0 {
			pass.Reportf(u.firstClose,
				"writable *os.File closed without Sync on any path (durable writes must fsync before Close)")
		}
		for _, p := range u.blankOps {
			pass.Reportf(p, "Close/Sync error on writable *os.File discarded with _ =")
		}
		for _, p := range u.bareCloses {
			pass.Reportf(p, "Close error on writable *os.File discarded (bare statement)")
		}
		if !u.checkedClose {
			for _, p := range u.deferCloses {
				pass.Reportf(p,
					"deferred Close is the only Close of this writable *os.File; "+
						"check an explicit Close error and keep the defer as the error-path backstop")
			}
		}
	}
}

// classifyFileUse inspects one identifier occurrence of a tracked file.
// stack[len-1] == id; walk outwards to find the governing construct.
func classifyFileUse(info *types.Info, id *ast.Ident, stack []ast.Node, u *fileUse) {
	// Find the node just above the identifier.
	if len(stack) < 2 {
		return
	}
	parent := stack[len(stack)-2]

	// f.Method(...) — receiver position.
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
		if len(stack) >= 3 {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == sel {
				switch sel.Sel.Name {
				case "Sync":
					u.syncs++
					if isBlankAssign(stack, call) {
						u.blankOps = append(u.blankOps, call.Pos())
					}
				case "Close":
					if u.firstClose == token.NoPos {
						u.firstClose = call.Pos()
					}
					switch closeContext(stack, call) {
					case ctxBare:
						u.bareCloses = append(u.bareCloses, call.Pos())
					case ctxDefer:
						u.deferCloses = append(u.deferCloses, call.Pos())
					case ctxBlank:
						u.blankOps = append(u.blankOps, call.Pos())
					case ctxChecked:
						u.checkedClose = true
					}
				}
				return // any method call through the receiver: not an escape
			}
		}
		return
	}

	// Argument to fsx.SyncData: counted, not an escape.
	if call, ok := parent.(*ast.CallExpr); ok && call.Fun != id {
		fn := calleeOf(info, call)
		if isPkgFunc(fn, "debar/internal/fsx", "SyncData") {
			u.syncs++
			return
		}
		u.escaped = true // passed to an arbitrary function
		return
	}

	// The defining assignment itself.
	if as, ok := parent.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			if l == id {
				return
			}
		}
		u.escaped = true // re-assigned somewhere else
		return
	}

	// Comparisons (f != nil) are harmless.
	if bin, ok := parent.(*ast.BinaryExpr); ok && (bin.Op == token.EQL || bin.Op == token.NEQ) {
		return
	}

	// Anything else — return statement, composite literal, address-of,
	// channel send, closure capture boundary is fine (same objects) —
	// treat as an escape and stop judging this file.
	u.escaped = true
}

type closeCtx int

const (
	ctxChecked closeCtx = iota
	ctxBare
	ctxDefer
	ctxBlank
)

// closeContext classifies the statement context of a Close call found at
// stack position of call.
func closeContext(stack []ast.Node, call *ast.CallExpr) closeCtx {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != ast.Node(call) {
			continue
		}
		if i == 0 {
			return ctxChecked
		}
		switch p := stack[i-1].(type) {
		case *ast.ExprStmt:
			return ctxBare
		case *ast.DeferStmt:
			return ctxDefer
		case *ast.GoStmt:
			return ctxBare
		case *ast.AssignStmt:
			if allBlank(p.Lhs) {
				return ctxBlank
			}
			return ctxChecked
		default:
			return ctxChecked // if err := f.Close(); return f.Close(); etc.
		}
	}
	return ctxChecked
}

func isBlankAssign(stack []ast.Node, call *ast.CallExpr) bool {
	for i := len(stack) - 1; i >= 1; i-- {
		if stack[i] == ast.Node(call) {
			as, ok := stack[i-1].(*ast.AssignStmt)
			return ok && allBlank(as.Lhs)
		}
	}
	return false
}

func allBlank(lhs []ast.Expr) bool {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(lhs) > 0
}

// isWritableOpen reports whether call opens an *os.File for writing:
// os.Create, os.CreateTemp, or os.OpenFile with O_WRONLY/O_RDWR/O_APPEND
// in a constant flag argument (a non-constant flag is assumed writable).
func isWritableOpen(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil {
		return false
	}
	switch {
	case isPkgFunc(fn, "os", "Create"), isPkgFunc(fn, "os", "CreateTemp"):
		return true
	case isPkgFunc(fn, "os", "OpenFile"):
		if len(call.Args) < 2 {
			return false
		}
		f, ok := constFloat(info, call.Args[1])
		if !ok {
			return true // unknown flags: assume writable
		}
		const writable = 0x1 | 0x2 | 0x400 // O_WRONLY | O_RDWR | O_APPEND (linux)
		return int64(f)&writable != 0
	}
	return false
}

// walkWithStack runs f over every node with the ancestor stack
// (outermost first, n last).
func walkWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		f(n, stack)
		return true
	})
}
