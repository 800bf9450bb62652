package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"debar/tools/debarvet/analysis"
)

// ErrDiscard forbids silent discards of I/O, flock and fsync error
// returns in the storage layers: no `_ =` assignments and no
// bare-statement calls whose error result vanishes. Cleanup paths that
// genuinely cannot act on the error must either log it (the obs/slog
// convention from the observability PR) or carry a narrowly-scoped
// debarvet:ignore directive explaining why the discard is safe.
//
// A deferred call is exempt except for Sync: `defer f.Close()` as the
// error-path backstop of the open/write/sync/close idiom is syncclose's
// business, but a deferred fsync whose verdict nobody reads is a
// durability hole on every path.
var ErrDiscard = &analysis.Analyzer{
	Name: "errdiscard",
	Doc: "no _ = or bare-statement discards of error returns from I/O, " +
		"flock or fsync calls in the storage layers",
	Packages: []string{
		"debar/internal/store",
		"debar/internal/chunklog",
		"debar/internal/seglog",
		"debar/internal/metastore",
		"debar/internal/diskindex",
		"debar/internal/fsx",
	},
	SkipTests: true,
	Run:       runErrDiscard,
}

func runErrDiscard(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
					if name, ok := ioErrorCall(info, call); ok {
						pass.Reportf(call.Pos(), "error from %s discarded (bare statement)", name)
					}
				}
			case *ast.AssignStmt:
				if !allBlank(st.Lhs) || len(st.Rhs) != 1 {
					return true
				}
				if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
					if name, ok := ioErrorCall(info, call); ok {
						pass.Reportf(st.Pos(), "error from %s discarded with _ =", name)
					}
				}
			case *ast.DeferStmt:
				if fn := calleeOf(info, st.Call); fn != nil && fn.Name() == "Sync" {
					if name, ok := ioErrorCall(info, st.Call); ok {
						pass.Reportf(st.Pos(), "deferred %s discards the fsync verdict on every path", name)
					}
				}
				return false // other deferred discards are syncclose's business
			}
			return true
		})
	}
	return nil
}

// storagePkgs are the package trees whose own write/sync/close-shaped
// methods count as I/O calls (a discarded journal.writeLocked error is as
// much a durability hole as a discarded os.File.Sync).
var storagePkgs = []string{
	"debar/internal/store",
	"debar/internal/chunklog",
	"debar/internal/seglog",
	"debar/internal/metastore",
	"debar/internal/diskindex",
	"debar/internal/fsx",
}

func inStoragePkg(path string) bool {
	for _, p := range storagePkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// ioMethodPrefixes classify storage-layer methods by name (lowercased):
// anything that writes, syncs or releases durable state.
var ioMethodPrefixes = []string{
	"write", "sync", "close", "flush", "truncate", "append", "reset",
	"checkpoint", "commit", "seal", "invalidate", "markclean",
}

var osIOFuncs = map[string]bool{
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"WriteFile": true, "Link": true, "Symlink": true, "Mkdir": true,
	"MkdirAll": true, "Chmod": true, "Chtimes": true,
}

var syscallIOFuncs = map[string]bool{
	"Flock": true, "Fsync": true, "Fdatasync": true, "Ftruncate": true,
}

// ioErrorCall reports whether call is an I/O-ish call returning an error
// that the caller is discarding-eligible for, and a printable name.
func ioErrorCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeOf(info, call)
	if fn == nil || !returnsError(fn) {
		return "", false
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if recv := recvNamed(fn); recv != nil {
		name := recv.Obj().Name() + "." + fn.Name()
		// Any error-returning method on *os.File.
		if isNamedType(recv, "os", "File") {
			return "os." + name, true
		}
		// bufio writers flush buffered I/O.
		if recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "bufio" {
			return "bufio." + name, true
		}
		// Write/sync/close-shaped methods on the storage layers' own types.
		if inStoragePkg(pkg) && hasIOPrefix(fn.Name()) {
			return name, true
		}
		return "", false
	}
	switch {
	case pkg == "os" && osIOFuncs[fn.Name()]:
		return "os." + fn.Name(), true
	case pkg == "syscall" && syscallIOFuncs[fn.Name()]:
		return "syscall." + fn.Name(), true
	case pkg == "debar/internal/fsx":
		return "fsx." + fn.Name(), true
	case inStoragePkg(pkg) && hasIOPrefix(fn.Name()):
		return pkg[strings.LastIndex(pkg, "/")+1:] + "." + fn.Name(), true
	}
	return "", false
}

func hasIOPrefix(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range ioMethodPrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}
