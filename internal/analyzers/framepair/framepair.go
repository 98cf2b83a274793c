// Package framepair checks that every protocol op is defined in the op
// table: the variable marked //dc:optable, a composite literal keyed by
// op constant (`OpX: {...}`) with one row per request op. The table is
// the only place a per-op fact lives — codec, reply op, version, client
// policy, node handler — and the generic send/read/serve paths work
// from its columns, so an op is wired exactly when its row is complete:
//
//  1. every `OpX` constant is named inside the table, as a row key or
//     as a column value (the reply op of a request, its sorted form);
//  2. every row states its `minVer` (the op×version gate);
//  3. a row that names a `reply` is a request, and must also name its
//     `valid` rule (the client's reply check) and its `serve` handler
//     (the node's dispatch).
//
// A half-wired op (sent but never served, or answered but never
// checked) is exactly the bug class behind PR 7's append-vs-overwrite
// divergence: both sides compiled, but one direction of the frame
// pairing was missing.
//
// The check runs only in packages that declare a //dc:optable variable,
// so unrelated packages with Op-prefixed constants are untouched.
package framepair

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analyzers/directives"
	"repro/internal/analyzers/framework"
)

// Analyzer is the framepair pass.
var Analyzer = &framework.Analyzer{
	Name: "framepair",
	Doc:  "checks every Op constant is defined in the op table and every request row is complete",
	Run:  run,
}

var opName = regexp.MustCompile(`^Op[A-Z]`)

func run(pass *framework.Pass) error {
	table := findOpTable(pass)
	if table == nil {
		return nil
	}

	// Every op constant the package declares, not yet seen in the table.
	missing := map[types.Object]token.Pos{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !opName.MatchString(name.Name) {
						continue
					}
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						missing[obj] = name.Pos()
					}
				}
			}
		}
	}

	ast.Inspect(table, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			delete(missing, pass.TypesInfo.Uses[id])
		}
		return true
	})
	for obj, pos := range missing {
		pass.Reportf(pos, "%s is missing from the //dc:optable op table", obj.Name())
	}

	for _, elt := range table.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			pass.Reportf(elt.Pos(), "op table rows must be keyed by their op constant")
			continue
		}
		row, ok := kv.Value.(*ast.CompositeLit)
		key, isIdent := kv.Key.(*ast.Ident)
		if !ok || !isIdent {
			pass.Reportf(kv.Pos(), "op table rows must be `OpX: {...}` literals")
			continue
		}
		cols := map[string]bool{}
		for _, c := range row.Elts {
			if ckv, ok := c.(*ast.KeyValueExpr); ok {
				if name, ok := ckv.Key.(*ast.Ident); ok {
					cols[name.Name] = true
				}
			}
		}
		if !cols["minVer"] {
			pass.Reportf(key.Pos(), "%s's row states no minVer: the op×version gate cannot place it", key.Name)
		}
		if cols["reply"] {
			if !cols["valid"] {
				pass.Reportf(key.Pos(), "%s names a reply op but no valid rule: client reply check missing", key.Name)
			}
			if !cols["serve"] {
				pass.Reportf(key.Pos(), "%s names a reply op but no serve handler: node dispatch missing", key.Name)
			}
		}
	}
	return nil
}

// findOpTable locates the var marked //dc:optable and returns its
// composite literal.
func findOpTable(pass *framework.Pass) *ast.CompositeLit {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			marked := len(directives.Named(directives.OfGroup(gd.Doc), "optable")) > 0
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if !marked && len(directives.Named(directives.OfGroup(vs.Doc), "optable")) == 0 {
					continue
				}
				for _, v := range vs.Values {
					if cl, ok := v.(*ast.CompositeLit); ok {
						return cl
					}
				}
				pass.Reportf(vs.Pos(), "//dc:optable variable must be initialized with a composite literal")
			}
		}
	}
	return nil
}
