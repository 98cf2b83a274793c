package main

import "time"

// The host runs the same code a quarter slower for seconds or minutes at
// a time, for reasons outside the program (README, noise floor): what is
// slow then is cache-resident searching, the work the program does most.
// The yardstick is a fixed amount of exactly that work, frozen here and
// sharing no code with the program: binary searches for a fixed sequence
// of keys in a fixed sorted array the size of the base key set. It is
// read before and after every round, and a round's times are scaled by
// how long the yardstick took beside it compared with yardstickNominal:
// a time t becomes t x yardstickNominal / reading. Times so corrected
// are what the program would have taken had the host run the yardstick
// at its nominal speed throughout.

// yardstickNominal is what one yardstick pass takes on this repository's
// host when nothing disturbs it, so that corrected and measured times
// agree there. It defines the corrected second and must not change
// while numbers are compared.
const yardstickNominal = 1300 * time.Microsecond

const yardstickSearches = 10000

var yardstickArray = func() []uint32 {
	a := make([]uint32, baseKeys)
	for i := range a {
		a[i] = uint32(i) * (1 << 32 / baseKeys)
	}
	return a
}()

var yardstickSink int

// yardstickPass times one pass: yardstickSearches searches.
func yardstickPass() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	sum := 0
	for i := 0; i < yardstickSearches; i++ {
		x ^= x << 13 // xorshift64: the same keys every pass
		x ^= x >> 7
		x ^= x << 17
		q := uint32(x)
		lo, hi := 0, len(yardstickArray)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if yardstickArray[mid] <= q {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sum += lo
	}
	yardstickSink += sum // keeps the loop from being optimised away
	return time.Since(t0)
}

// readYardstick returns the median of three passes, so that one pass
// interrupted by the host does not count.
func readYardstick() time.Duration {
	a, b, c := yardstickPass(), yardstickPass(), yardstickPass()
	return max(min(a, b), min(max(a, b), c))
}
