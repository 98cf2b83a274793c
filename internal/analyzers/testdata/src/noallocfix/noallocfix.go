// Package noallocfix exercises the //dc:noalloc heap-escape checks and their
// escape hatches: cap/len-guarded growth, cold panic/error branches, the
// self-append and builder idioms, and pointer-shaped interface storage.
package noallocfix

type pair struct{ a, b int }

type sink interface{ value() int }

type boxed int

func (b boxed) value() int { return int(b) }

func consume(s sink) int { return s.value() }

func consumeAny(v interface{}) bool { return v != nil }

//dc:noalloc
func badMake(n int) []int {
	out := make([]int, n) // want `make outside a cap/len-guarded grow block in a //dc:noalloc function`
	return out
}

// goodGrow is the pool-refill idiom: allocation happens only when the pooled
// backing array is too small, which is amortized, not steady-state.
//
//dc:noalloc
func goodGrow(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	return buf[:n]
}

// goodColdMake allocates only on a branch that panics: an error path, not the
// hot loop.
//
//dc:noalloc
func goodColdMake(ok bool, buf []int) []int {
	if !ok {
		buf = make([]int, 0, 64)
		panic("corrupt state: rebuilt scratch before bailing")
	}
	return buf
}

//dc:noalloc
func badClosure(xs []int) int {
	total := 0
	for _, x := range xs {
		add := func() { total += x } // want `closure declared inside a loop in a //dc:noalloc function: allocates a fresh closure every iteration`
		add()
	}
	return total
}

// goodClosure hoists the closure out of the loop: one allocation per call,
// not per iteration, which is the rule's boundary.
//
//dc:noalloc
func goodClosure(xs []int) int {
	double := func(x int) int { return 2 * x }
	total := 0
	for _, x := range xs {
		total += double(x)
	}
	return total
}

//dc:noalloc
func goodAppend(dst []int, k int, xs []int) []int {
	dst = append(dst[:k], xs...)
	return dst
}

//dc:noalloc
func goodDerefAppend(dst *[]int, x int) {
	*dst = append(*dst, x)
}

//dc:noalloc
func goodBuilder(dst []byte, b byte) []byte {
	return append(dst, b)
}

//dc:noalloc
func badAppend(dst, xs []int) []int {
	grown := append(dst, xs...) // want `append result not assigned back to the slice it extends in a //dc:noalloc function`
	return grown
}

//dc:noalloc
func badArgBox(x int) int {
	return consume(boxed(x)) // want `implicit conversion of .*boxed to interface .*sink boxes its argument in a //dc:noalloc function`
}

//dc:noalloc
func badConvert(x int) sink {
	return sink(boxed(x)) // want `conversion to interface type .*sink in a //dc:noalloc function`
}

//dc:noalloc
func badAssignBox(x int) sink {
	var s sink
	s = boxed(x) // want `assignment boxes .*boxed into interface .*sink in a //dc:noalloc function`
	return s
}

// goodTypeParamConvert converts to a type parameter: the concrete type it
// is instantiated with, not the constraint interface — no box.
//
//dc:noalloc
func goodTypeParamConvert[T ~uint32](out []T, v uint64) {
	out[0] = T(v)
}

// goodPointerArg stores a pointer in the interface word directly — no box.
//
//dc:noalloc
func goodPointerArg(p *pair) bool {
	return consumeAny(p)
}

//dc:noalloc
func badSliceLit() []int {
	return []int{1, 2, 3} // want `\[\]int literal allocates in a //dc:noalloc function`
}

//dc:noalloc
func badEscape() *pair {
	return &pair{a: 1} // want `&composite literal escapes to the heap in a //dc:noalloc function`
}

//dc:noalloc
func goodStructValue() pair {
	return pair{a: 1, b: 2}
}

//dc:noalloc
func badConcat(a, b string) string {
	return a + b // want `string concatenation in a //dc:noalloc function`
}

// unannotated functions may allocate freely.
func unannotated(n int) []int {
	return make([]int, n)
}
