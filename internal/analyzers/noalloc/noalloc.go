// Package noalloc checks that functions annotated //dc:noalloc — the
// LookupBatchInto / RankBatch / RankSorted / frame-codec hot paths whose
// benchmarks pin 0 allocs/op at steady state — stay free of heap-escaping
// constructs:
//
//   - make/new and &T{} / slice / map literals
//   - closures declared inside loops (a fresh closure value per iteration)
//   - implicit interface conversions at call arguments, assignments, and
//     explicit conversions
//   - append that does not write back to the slice it extends
//   - string concatenation
//
// Two escape hatches keep the real steady-state-pooled code expressible:
//
//  1. Guarded growth: an allocation inside an if whose condition mentions
//     cap() or len() is the pool-(re)fill idiom (`if cap(buf) < need
//     { buf = make(...) }`) — amortized, not steady-state.
//  2. Cold paths: any if-branch that panics or returns a non-nil error is an
//     error path, not the hot loop; fmt.Errorf boxing there is fine.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers/directives"
	"repro/internal/analyzers/framework"
)

// Analyzer is the noalloc pass.
var Analyzer = &framework.Analyzer{
	Name: "noalloc",
	Doc:  "checks that //dc:noalloc functions contain no heap-escaping constructs outside pooled-init and error paths",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if len(directives.Named(directives.FuncDirectives(fn), "noalloc")) == 0 {
				continue
			}
			c := &checker{pass: pass, parents: map[ast.Node]ast.Node{}}
			c.buildParents(fn.Body)
			c.check(fn.Body)
		}
	}
	return nil
}

type checker struct {
	pass    *framework.Pass
	parents map[ast.Node]ast.Node
}

func (c *checker) buildParents(root ast.Node) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			c.parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
}

func (c *checker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			c.checkCall(x)
		case *ast.CompositeLit:
			c.checkCompositeLit(x)
		case *ast.FuncLit:
			if c.inLoop(x) && !c.cold(x) {
				c.pass.Reportf(x.Pos(), "closure declared inside a loop in a //dc:noalloc function: allocates a fresh closure every iteration")
			}
		case *ast.AssignStmt:
			c.checkAssign(x)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(c.pass.TypesInfo.TypeOf(x)) && !c.cold(x) {
				c.pass.Reportf(x.Pos(), "string concatenation in a //dc:noalloc function")
			}
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch {
		case id.Name == "make" && c.isBuiltin(id):
			if !c.capGuarded(call) && !c.cold(call) {
				c.pass.Reportf(call.Pos(), "make outside a cap/len-guarded grow block in a //dc:noalloc function")
			}
			return
		case id.Name == "new" && c.isBuiltin(id):
			if !c.capGuarded(call) && !c.cold(call) {
				c.pass.Reportf(call.Pos(), "new in a //dc:noalloc function")
			}
			return
		case id.Name == "append" && c.isBuiltin(id):
			c.checkAppend(call)
			return
		}
	}
	// Explicit conversion to an interface type: T(x) where T is an
	// interface. A type parameter's underlying type is its constraint, an
	// interface, but a conversion to it is to whatever concrete type
	// instantiates it: no box.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if _, param := tv.Type.(*types.TypeParam); !param && types.IsInterface(tv.Type) && !c.cold(call) && len(call.Args) == 1 && !c.isInterfaceOrNil(call.Args[0]) {
			c.pass.Reportf(call.Pos(), "conversion to interface type %s in a //dc:noalloc function", tv.Type)
		}
		return
	}
	c.checkInterfaceArgs(call)
}

// checkInterfaceArgs flags concrete values boxed into interface parameters.
func (c *checker) checkInterfaceArgs(call *ast.CallExpr) {
	if c.cold(call) {
		return
	}
	sigType := c.pass.TypesInfo.TypeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice, no boxing
			}
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		if c.isInterfaceOrNil(arg) {
			continue
		}
		c.pass.Reportf(arg.Pos(), "implicit conversion of %s to interface %s boxes its argument in a //dc:noalloc function",
			c.pass.TypesInfo.TypeOf(arg), pt)
	}
}

func (c *checker) checkAssign(as *ast.AssignStmt) {
	if c.cold(as) || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := c.pass.TypesInfo.TypeOf(lhs)
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		if !c.isInterfaceOrNil(as.Rhs[i]) {
			c.pass.Reportf(as.Rhs[i].Pos(), "assignment boxes %s into interface %s in a //dc:noalloc function",
				c.pass.TypesInfo.TypeOf(as.Rhs[i]), lt)
		}
	}
}

// checkAppend allows self-appends — `x = append(x, ...)`,
// `x = append(x[:k], ...)` or `*p = append(*p, ...)` — where growth is bounded by the pooled backing
// array, the builder idiom `return append(dst, ...)` whose growth is
// amortized at the caller, and cold paths. Anything else drops the grown
// slice's identity and churns allocations.
func (c *checker) checkAppend(call *ast.CallExpr) {
	if c.cold(call) || len(call.Args) == 0 {
		return
	}
	switch parent := c.parents[call].(type) {
	case *ast.AssignStmt:
		if len(parent.Rhs) == 1 && parent.Rhs[0] == call && len(parent.Lhs) == 1 {
			dst := exprPath(parent.Lhs[0])
			src := call.Args[0]
			if sl, ok := src.(*ast.SliceExpr); ok {
				src = sl.X
			}
			if dst != "" && dst == exprPath(src) {
				return
			}
		}
	case *ast.ReturnStmt:
		return
	}
	c.pass.Reportf(call.Pos(), "append result not assigned back to the slice it extends in a //dc:noalloc function")
}

// capGuarded reports whether n sits inside an if whose condition mentions
// cap() or len() — the pooled grow idiom.
func (c *checker) capGuarded(n ast.Node) bool {
	for p := c.parents[n]; p != nil; p = c.parents[p] {
		ifs, ok := p.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") && c.isBuiltin(id) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// cold reports whether n is inside an if-branch that cannot be the steady
// state: the branch panics or returns a non-nil error.
func (c *checker) cold(n ast.Node) bool {
	child := n
	for p := c.parents[n]; p != nil; p = c.parents[p] {
		if ifs, ok := p.(*ast.IfStmt); ok {
			var branch ast.Node
			if containsNode(ifs.Body, child) {
				branch = ifs.Body
			} else if ifs.Else != nil && containsNode(ifs.Else, child) {
				branch = ifs.Else
			}
			if branch != nil && c.branchBails(branch) {
				return true
			}
		}
		child = p
	}
	return false
}

// branchBails reports whether the branch contains (outside nested closures) a
// panic or a return whose error result is non-nil.
func (c *checker) branchBails(branch ast.Node) bool {
	bails := false
	ast.Inspect(branch, func(n ast.Node) bool {
		if bails {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "panic" {
				bails = true
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if isNil(r) {
					continue
				}
				if t := c.pass.TypesInfo.TypeOf(r); t != nil && isErrorType(t) {
					bails = true
				}
			}
		}
		return !bails
	})
	return bails
}

func (c *checker) inLoop(n ast.Node) bool {
	for p := c.parents[n]; p != nil; p = c.parents[p] {
		switch p.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			return false // reset at closure boundary; outer loops don't re-create inner decls per call
		}
	}
	return false
}

func (c *checker) isBuiltin(id *ast.Ident) bool {
	obj := c.pass.TypesInfo.Uses[id]
	_, ok := obj.(*types.Builtin)
	return ok
}

// isInterfaceOrNil reports conversions of e that cannot heap-allocate:
// already-interface values, nil, and pointer-shaped types (*T, chan, map,
// func) whose representation is stored directly in the interface word.
func (c *checker) isInterfaceOrNil(e ast.Expr) bool {
	if isNil(e) {
		return true
	}
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil || types.IsInterface(t) {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func (c *checker) checkCompositeLit(lit *ast.CompositeLit) {
	// A composite literal allocates when its address is taken or when it is
	// a slice/map literal; plain struct values live on the stack.
	t := c.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	if c.cold(lit) || c.capGuarded(lit) {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		c.pass.Reportf(lit.Pos(), "%s literal allocates in a //dc:noalloc function", t)
	default:
		if u, ok := c.parents[lit].(*ast.UnaryExpr); ok && u.Op == token.AND {
			c.pass.Reportf(lit.Pos(), "&composite literal escapes to the heap in a //dc:noalloc function")
		}
	}
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isErrorType(t types.Type) bool {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == "Error" {
			return true
		}
	}
	return false
}

func containsNode(hay ast.Node, needle ast.Node) bool {
	return needle.Pos() >= hay.Pos() && needle.End() <= hay.End()
}

func exprPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprPath(x.X)
	case *ast.StarExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return "*" + base
	default:
		return ""
	}
}
