// Package errwrapcheck enforces the contract of the repo's sentinel
// errors (ErrBacklog, ErrClosed, ErrUnknownProvider): call sites
// compare them with errors.Is — never == / != / switch-case equality,
// which breaks as soon as a layer wraps the error — and propagate them
// with fmt.Errorf("...%w...") so errors.Is keeps working one layer up.
// The facade re-exports core's sentinel values untranslated, so a match
// at the top only works if every hop below obeys both halves.
package errwrapcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repchain/tools/analysis"
	"repchain/tools/lint/internal/suppress"
)

// Directive is the suppression annotation this analyzer honours.
const Directive = "errwrapcheck-ok"

// sentinels are the package-level error variables under contract.
var sentinels = map[string]bool{
	"ErrBacklog":         true,
	"ErrClosed":          true,
	"ErrUnknownProvider": true,
}

// Analyzer enforces errors.Is comparison and %w propagation for the
// sentinel errors.
var Analyzer = &analysis.Analyzer{
	Name: "errwrapcheck",
	Doc: "compare ErrBacklog/ErrClosed/ErrUnknownProvider with errors.Is " +
		"(not ==/!=/switch-case) and propagate them with %w so wrapped " +
		"sentinels keep matching",
	Run: run,
}

func run(pass *analysis.Pass) error {
	sup := suppress.Collect(pass.Fset, pass.Files, Directive)
	sup.ReportMissingReasons(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				name := sentinelName(pass, n.X)
				if name == "" {
					name = sentinelName(pass, n.Y)
				}
				if name != "" {
					sup.Reportf(pass, n.Pos(), "%s compared with %s: a wrapped sentinel no longer compares equal; use errors.Is(err, %s)",
						name, n.Op, name)
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, expr := range cc.List {
						if name := sentinelName(pass, expr); name != "" {
							sup.Reportf(pass, expr.Pos(), "switch-case equality against %s: a wrapped sentinel never matches; use a switch with errors.Is(err, %s) conditions",
								name, name)
						}
					}
				}
			case *ast.CallExpr:
				checkErrorf(pass, sup, n)
			}
			return true
		})
	}
	return nil
}

// checkErrorf flags fmt.Errorf calls that pass a sentinel without a
// %w verb in a constant format string.
func checkErrorf(pass *analysis.Pass, sup *suppress.Set, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if name := sentinelName(pass, arg); name != "" {
			sup.Reportf(pass, call.Pos(), "fmt.Errorf formats %s without %%w: callers can no longer match it with errors.Is; wrap it as %%w",
				name)
		}
	}
}

// sentinelName resolves an expression to one of the sentinel error
// variables, returning its name or "".
func sentinelName(pass *analysis.Pass, expr ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.Pkg() == nil || !sentinels[obj.Name()] {
		return ""
	}
	// Package-level variables only: locals that shadow the names are
	// not the shared sentinels.
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Name()
}
