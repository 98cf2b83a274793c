// Package snappin enforces //dc:pinvia field annotations: a field that is
// part of an atomically-published snapshot may only be read through the
// designated pin helper or with the snapshot mutex held. No production field
// carries the annotation: internal/index's Updatable, whose (base, delta,
// frozen) triple it was written for, publishes the triple as one immutable
// value behind one atomic pointer. Piecewise field reads are the
// bug class this guards against: a worker that loads base, then delta, then
// frozen as three independent reads can observe a torn snapshot across a
// concurrent merge swap.
//
// Annotation form, on the field, relative to its declaring struct:
//
//	//dc:pinvia <method> <mutexfield>
//
// Access is legal (a) anywhere inside <method> on the same struct, or
// (b) while <mutexfield> is held — exclusively for writes. Functions that run
// with the mutex held by their caller declare `//dc:holds <path>` exactly as
// for lockguard.
package snappin

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyzers/directives"
	"repro/internal/analyzers/framework"
	"repro/internal/analyzers/lockstate"
)

// Analyzer is the snappin pass.
var Analyzer = &framework.Analyzer{
	Name: "snappin",
	Doc:  "checks that snapshot fields annotated //dc:pinvia are read via the pin helper or under the snapshot mutex",
	Run:  run,
}

type pinned struct {
	method string       // allowed accessor method name
	owner  types.Object // the type whose method it must be
	mu     types.Object // or: this mutex held
}

func run(pass *framework.Pass) error {
	pins := map[*types.Var]pinned{}
	for _, f := range pass.Files {
		collectPins(pass, f, pins)
	}
	if len(pins) == 0 {
		return nil
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			seed := lockstate.NewHeld()
			for _, d := range directives.Named(directives.FuncDirectives(fn), "holds") {
				if len(d.Args) != 1 {
					continue // lockguard reports the malformed directive
				}
				mu, err := lockstate.ResolveFuncPath(pass.TypesInfo, pass.Pkg, fn, strings.Split(d.Arg(0), "."))
				if err != nil {
					continue
				}
				seed.Add(mu, true)
			}
			recvType := receiverType(pass, fn)
			cb := lockstate.Callbacks{
				OnAccess: func(sel *ast.SelectorExpr, field *types.Var, write bool, held *lockstate.Held) {
					p, ok := pins[field]
					if !ok {
						return
					}
					if fn.Name.Name == p.method && recvType == p.owner {
						return // inside the sanctioned pin helper
					}
					if held.Has(p.mu, write) {
						return
					}
					pass.Reportf(sel.Sel.Pos(), "snapshot field %s must be read via the %s helper or with %s held: piecewise reads can observe a torn (base, delta, frozen) snapshot",
						field.Name(), p.method, p.mu.Name())
				},
			}
			lockstate.WalkFunc(pass.TypesInfo, fn.Body, seed, cb)
		}
	}
	return nil
}

// receiverType returns the type-name object of fn's receiver (deref'd), or
// nil for plain functions.
func receiverType(pass *framework.Pass, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// collectPins resolves //dc:pinvia annotations on struct fields.
func collectPins(pass *framework.Pass, f *ast.File, pins map[*types.Var]pinned) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		owner := pass.TypesInfo.Defs[ts.Name]
		if owner == nil {
			return true
		}
		for _, field := range st.Fields.List {
			for _, d := range directives.Named(directives.FieldDirectives(field), "pinvia") {
				if len(d.Args) != 2 {
					pass.Reportf(d.Pos, "malformed //dc:pinvia: want `//dc:pinvia <method> <mutexfield>`")
					continue
				}
				mu, err := lockstate.FieldByPath(pass.Pkg, owner.Type(), strings.Split(d.Arg(1), "."))
				if err != nil || !lockstate.IsMutex(mu.Type()) {
					pass.Reportf(d.Pos, "//dc:pinvia: %s does not name a mutex field on %s", d.Arg(1), owner.Name())
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(owner.Type(), true, pass.Pkg, d.Arg(0)); m == nil {
					pass.Reportf(d.Pos, "//dc:pinvia: %s has no method %s", owner.Name(), d.Arg(0))
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						pins[v] = pinned{method: d.Arg(0), owner: owner, mu: mu}
					}
				}
			}
		}
		return true
	})
}
