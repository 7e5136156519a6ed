package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathDirective marks a file whose code is on the join kernel's hot
// path. The analyzer is opt-in per file: the tag is a contract that the
// file's loops stay allocation-disciplined.
const HotPathDirective = "//joinlint:hotpath"

// HotPath enforces the kernel files' allocation discipline. A file
// tagged //joinlint:hotpath must not
//
//   - call into package fmt at all (formatting reflects and allocates;
//     cold-path panics with formatted messages belong in untagged files
//     of the same package),
//   - build strings by concatenation inside a loop (each + allocates a
//     fresh string per iteration — the dictionary exists so loops
//     compare uint32 IDs instead), or
//   - allocate a map inside a loop (per-row map allocation is the
//     failure mode the interning rewrite removed; hoist the map, or
//     index rows in flat slices as the join kernel's chained table
//     does).
//
// Untagged files are never checked: the analyzer draws the hot/cold
// boundary exactly where the kernel declares it.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//joinlint:hotpath files must not call fmt, concatenate strings in loops, or allocate maps in loops",
	Run:  runHotPath,
}

// hasHotPathDirective reports whether any comment in the file is the
// hotpath tag.
func hasHotPathDirective(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text == HotPathDirective {
				return true
			}
		}
	}
	return false
}

func runHotPath(pass *Pass) {
	for _, f := range pass.Files {
		if !hasHotPathDirective(f) {
			continue
		}
		imports := importNames(f)
		// fmt is banned anywhere in a tagged file, loop or not: its
		// presence means a cold path lives in a hot file.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, name, ok := calleePkgFunc(pass.TypesInfo, imports, call); ok && pkg == "fmt" {
				pass.Reportf(call.Pos(),
					"fmt.%s in a %s file: formatting allocates; move this to an untagged file of the package", name, HotPathDirective)
			}
			return true
		})
		// Loop-body discipline. Nested loops would visit inner nodes
		// once per enclosing loop; seen dedups the reports.
		seen := make(map[token.Pos]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch l := n.(type) {
			case *ast.ForStmt:
				body = l.Body
			case *ast.RangeStmt:
				body = l.Body
			default:
				return true
			}
			checkHotLoop(pass, body, seen)
			return true
		})
	}
}

// checkHotLoop reports string concatenation and map allocation inside
// one loop body.
func checkHotLoop(pass *Pass, body *ast.BlockStmt, seen map[token.Pos]bool) {
	report := func(pos token.Pos, msg string) {
		if !seen[pos] {
			seen[pos] = true
			pass.Reportf(pos, "%s", msg)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringExpr(pass.TypesInfo, e.X) {
				report(e.OpPos,
					"string concatenation inside a loop in a "+HotPathDirective+" file allocates every iteration; compare dictionary IDs or hoist the build out of the loop")
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringExpr(pass.TypesInfo, e.Lhs[0]) {
				report(e.TokPos,
					"string += inside a loop in a "+HotPathDirective+" file allocates every iteration; use a strings.Builder outside the hot path")
			}
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && isBuiltin(pass.TypesInfo, id, "make") && len(e.Args) > 0 {
				if _, isMap := e.Args[0].(*ast.MapType); isMap {
					report(e.Pos(),
						"map allocation inside a loop in a "+HotPathDirective+" file; hoist the map out of the per-row loop")
				}
			}
		case *ast.CompositeLit:
			if _, isMap := e.Type.(*ast.MapType); isMap {
				report(e.Pos(),
					"map literal inside a loop in a "+HotPathDirective+" file; hoist the map out of the per-row loop")
			}
		}
		return true
	})
}

// isStringExpr reports whether the expression has string type. Type
// information is authoritative; without it only untyped string literals
// are recognized.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	if info != nil {
		if tv, ok := info.Types[e]; ok && tv.Type != nil {
			basic, isBasic := tv.Type.Underlying().(*types.Basic)
			return isBasic && basic.Info()&types.IsString != 0
		}
	}
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}
