package suffixarray

import (
	"math"
	"math/rand"
	"testing"
)

// compareSuffixes orders suffixes x and y of seq directly, a proper prefix
// first, and returns their longest common prefix.
func compareSuffixes(seq []uint32, x, y int) (cmp, lcp int) {
	for x+lcp < len(seq) && y+lcp < len(seq) {
		a, b := seq[x+lcp], seq[y+lcp]
		if a != b {
			if a < b {
				return -1, lcp
			}
			return 1, lcp
		}
		lcp++
	}
	switch {
	case x+lcp == len(seq) && y+lcp == len(seq):
		return 0, lcp
	case x+lcp == len(seq):
		return -1, lcp
	default:
		return 1, lcp
	}
}

// checkBuild requires Build(seq) to be a permutation of the positions in
// strictly ascending suffix order, with every LCP entry equal to the
// direct comparison of its neighbours.
func checkBuild(t *testing.T, seq []uint32) {
	t.Helper()
	a := Build(seq)
	sa, lcp := a.SA(), a.LCP()
	if len(sa) != len(seq) || len(lcp) != len(seq) {
		t.Fatalf("n=%d: len(SA)=%d len(LCP)=%d", len(seq), len(sa), len(lcp))
	}
	seen := make([]bool, len(seq))
	for _, s := range sa {
		if s < 0 || int(s) >= len(seq) || seen[s] {
			t.Fatalf("n=%d: SA is not a permutation: %v", len(seq), sa)
		}
		seen[s] = true
	}
	if len(lcp) > 0 && lcp[0] != 0 {
		t.Fatalf("n=%d: lcp[0] = %d", len(seq), lcp[0])
	}
	for i := 1; i < len(sa); i++ {
		cmp, want := compareSuffixes(seq, int(sa[i-1]), int(sa[i]))
		if cmp >= 0 {
			t.Fatalf("n=%d: suffixes %d, %d out of order at sa[%d]", len(seq), sa[i-1], sa[i], i)
		}
		if int(lcp[i]) != want {
			t.Fatalf("n=%d: lcp[%d] = %d, want %d", len(seq), i, lcp[i], want)
		}
	}
}

// TestBuildMatchesBruteForce checks SA order and Kasai LCP against direct
// suffix comparison on every path the builder can take: the counting sort
// over dense ids (the outliner's symbolizer input) with counts both inside
// and beyond the n-sized scratch, the packed-key sort over sparse ids up
// to MaxUint32, single-symbol runs that need log n doubling rounds, and
// the smallest sequences.
func TestBuildMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	draw := func(n int, sym func(i int) uint32) []uint32 {
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = sym(i)
		}
		return seq
	}
	for _, n := range []int{0, 1, 2} {
		checkBuild(t, draw(n, func(int) uint32 { return 0 }))
		checkBuild(t, draw(n, func(i int) uint32 { return uint32(n - i) }))
		checkBuild(t, draw(n, func(int) uint32 { return math.MaxUint32 }))
	}
	checkBuild(t, []uint32{1, 0})
	checkBuild(t, []uint32{3, 3})
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		// Dense: the largest symbol below n, then in [n, 2n).
		alpha := 1 + r.Intn(n)
		checkBuild(t, draw(n, func(int) uint32 { return uint32(r.Intn(alpha)) }))
		checkBuild(t, draw(n, func(int) uint32 { return uint32(r.Intn(2 * n)) }))
		// Sparse: symbols spread up to MaxUint32, few distinct values so
		// repeats still form.
		pool := []uint32{uint32(2 * n), uint32(r.Int63n(math.MaxUint32)), math.MaxUint32}
		checkBuild(t, draw(n, func(int) uint32 { return pool[r.Intn(len(pool))] }))
		// Single-symbol runs: every suffix is a prefix of the longer ones.
		sym := uint32(r.Intn(4)) * (math.MaxUint32 / 3)
		checkBuild(t, draw(n, func(int) uint32 { return sym }))
	}
	checkBuild(t, make([]uint32, 4096)) // a long run: twelve doubling rounds
}

// FuzzSuffixArray builds from arbitrary symbols: each input byte scaled by
// an alphabet stride, so small strides take the dense counting path and
// large ones the sparse packed-key path.
func FuzzSuffixArray(f *testing.F) {
	f.Add([]byte("banana$"), uint32(1))
	f.Add([]byte("mississippi"), uint32(1<<24))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint32(1))
	f.Add([]byte{1, 2, 1, 2, 1, 2, 255}, uint32(math.MaxUint32))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, stride uint32) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		seq := make([]uint32, len(data))
		for i, b := range data {
			seq[i] = uint32(b) * stride
		}
		checkBuild(t, seq)
	})
}
