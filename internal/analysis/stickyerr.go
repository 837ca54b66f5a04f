package analysis

import (
	"go/ast"
	"go/types"
)

// StickyErr guards the fail-stop contract from PRs 2 and 7: the
// coalescing ConnWriter and the WAL both latch their first error and
// refuse further work, which only fail-stops the system if callers
// actually look at the returned error. A discarded error on these paths
// — dropped as a bare statement, assigned to _, or detached via go or
// defer — is how an unacked write turns into a silently acked one.
// Intentional discards on paths where the sticky design makes the error
// redundant (a response send on a conn the readLoop will tear down)
// carry a //brb:allow stickyerr comment stating exactly that.
var StickyErr = &Analyzer{
	Name: "stickyerr",
	Doc: "errors from ConnWriter sends, WAL append/fsync/rotate/close, and " +
		"snapshot writes must be checked: these APIs fail-stop, and dropping " +
		"the error drops the stop",
	Run: runStickyErr,
}

// stickyTarget names one method (or package function, Recv=="") whose
// error result is load-bearing.
type stickyTarget struct {
	PkgSuffix string
	Recv      string
	Name      string
}

var stickyTargets = []stickyTarget{
	{"internal/wire", "ConnWriter", "Send"},
	{"internal/wire", "ConnWriter", "SendVectored"},
	{"internal/wire", "ConnWriter", "Flush"},
	// The deferred-send pair: a staged frame's loss surfaces only
	// through Stage's or Push's error.
	{"internal/wire", "ConnWriter", "Stage"},
	{"internal/wire", "ConnWriter", "Push"},
	// The server/controller response path: a thin wrapper over
	// ConnWriter.Send with the same contract.
	{"internal/netstore", "connState", "send"},
	// WAL internals (package kv's own call sites).
	{"internal/kv", "wal", "append"},
	{"internal/kv", "wal", "appendAsync"},
	{"internal/kv", "wal", "rotate"},
	{"internal/kv", "wal", "close"},
	// The durable store's public write/snapshot surface.
	{"internal/kv", "Durable", "Set"},
	{"internal/kv", "Durable", "SetVersion"},
	{"internal/kv", "Durable", "Delete"},
	{"internal/kv", "Durable", "DeleteVersion"},
	{"internal/kv", "Durable", "Snapshot"},
	{"internal/kv", "Durable", "Close"},
	{"internal/kv", "", "writeSnapshot"},
}

func runStickyErr(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.CalleeFunc(call)
			if fn == nil || !isStickyTarget(fn) {
				return true
			}
			switch parent := parents[call].(type) {
			case *ast.ExprStmt:
				pass.Reportf(call.Pos(), "%s: error discarded — check it (the sticky error is the fail-stop)", fn.Name())
			case *ast.GoStmt:
				pass.Reportf(call.Pos(), "go %s: error unobservable — call it synchronously and check", fn.Name())
			case *ast.DeferStmt:
				pass.Reportf(call.Pos(), "defer %s: error unobservable — capture it in a deferred closure", fn.Name())
			case *ast.AssignStmt:
				if errResultsAllBlank(pass, parent, call, fn) {
					pass.Reportf(call.Pos(), "%s: error assigned to _ — check it or //brb:allow with the reason the sticky design covers this site", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

func isStickyTarget(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	recv := RecvTypeName(fn)
	for _, t := range stickyTargets {
		if t.Name == fn.Name() && t.Recv == recv && PkgPathIs(fn.Pkg().Path(), t.PkgSuffix) {
			return true
		}
	}
	return false
}

// errResultsAllBlank reports whether every error-typed result of call
// lands in the blank identifier within assign.
func errResultsAllBlank(pass *Pass, assign *ast.AssignStmt, call *ast.CallExpr, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	// Only the `x, err := f()` single-call form can be matched
	// positionally; anything more exotic is left to the compiler.
	if len(assign.Rhs) != 1 || assign.Rhs[0] != ast.Expr(call) {
		return false
	}
	results := sig.Results()
	if results.Len() != len(assign.Lhs) {
		return false
	}
	sawErr := false
	for i := 0; i < results.Len(); i++ {
		if !isErrorType(results.At(i).Type()) {
			continue
		}
		sawErr = true
		id, ok := assign.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return sawErr
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// buildParents maps every node in f to its parent.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
