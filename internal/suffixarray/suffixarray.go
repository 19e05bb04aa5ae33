// Package suffixarray is Calibro's repeat detector: a suffix array with an
// LCP table over sequences of uint32 symbols, built by prefix doubling
// (O(n log² n)) with Kasai's LCP algorithm (O(n)). The paper uses
// Ukkonen's suffix tree (§2.1.2, §3.3.2); the LCP intervals of a suffix
// array are exactly the suffix tree's internal nodes, so the same repeat
// families come out of three integer arrays instead of a pointer-and-map
// tree — the memory footprint the paper's global tree exhausts at
// production scale (§3.4/§4.4).
//
// Sequences are instruction words mapped to symbols by the outliner; every
// basic-block terminator is mapped to a symbol unique to its position, so
// no repeated substring can cross a basic-block boundary (§3.3.2), and
// concatenating many methods with unique separators yields one structure
// over the whole program.
package suffixarray

import (
	"math"
	"sort"
)

// Array is a built suffix array with its LCP table.
type Array struct {
	seq []uint32
	sa  []int32 // suffix start positions in lexicographic order
	lcp []int32 // lcp[i] = longest common prefix of sa[i-1] and sa[i]; lcp[0]=0
}

// Build constructs the suffix array of seq. The caller terminates
// sequences with unique separator symbols.
func Build(seq []uint32) *Array {
	n := len(seq)
	a := &Array{seq: seq, sa: make([]int32, n), lcp: make([]int32, n)}
	if n == 0 {
		return a
	}

	// Prefix doubling. rank holds the sort key of each suffix for the
	// current prefix length k; tmp is the scratch for recomputed ranks.
	rank := make([]int64, n)
	tmp := make([]int64, n)
	for i, s := range seq {
		a.sa[i] = int32(i)
		rank[i] = int64(s)
	}
	key := func(i int32, k int) int64 {
		if int(i)+k < n {
			return rank[int(i)+k]
		}
		return -1
	}
	for k := 1; ; k *= 2 {
		sort.Slice(a.sa, func(x, y int) bool {
			ix, iy := a.sa[x], a.sa[y]
			if rank[ix] != rank[iy] {
				return rank[ix] < rank[iy]
			}
			return key(ix, k) < key(iy, k)
		})
		tmp[a.sa[0]] = 0
		for i := 1; i < n; i++ {
			prev, cur := a.sa[i-1], a.sa[i]
			tmp[cur] = tmp[prev]
			if rank[prev] != rank[cur] || key(prev, k) != key(cur, k) {
				tmp[cur]++
			}
		}
		copy(rank, tmp)
		if rank[a.sa[n-1]] == int64(n-1) {
			break // all distinct: fully sorted
		}
	}

	// Kasai's LCP.
	pos := make([]int32, n) // suffix -> position in sa
	for i, s := range a.sa {
		pos[s] = int32(i)
	}
	h := 0
	for i := 0; i < n; i++ {
		p := pos[i]
		if p == 0 {
			h = 0
			continue
		}
		j := int(a.sa[p-1])
		for i+h < n && j+h < n && seq[i+h] == seq[j+h] {
			h++
		}
		a.lcp[p] = int32(h)
		if h > 0 {
			h--
		}
	}
	return a
}

// Len returns the sequence length.
func (a *Array) Len() int { return len(a.seq) }

// SA returns the suffix array (do not modify).
func (a *Array) SA() []int32 { return a.sa }

// LCP returns the LCP table (do not modify).
func (a *Array) LCP() []int32 { return a.lcp }

// Repeat is one right-maximal repeat: an LCP interval. The subsequence of
// the given Length starts at every position in Occurrences.
type Repeat struct {
	Length int
	Count  int
	// Ord is the repeat's selection tie-break: the second-smallest of the
	// minimum suffix starts of the interval's children. It is the position
	// p at which Ukkonen's construction creates the repeat's suffix-tree
	// node (in phase p+Length), so among repeats of equal Length, Ord order
	// is the suffix tree's node-creation order. Ord is also an occurrence
	// start.
	Ord    int
	lo, hi int // interval [lo, hi] in sa
	arr    *Array
}

// Occurrences returns the start positions (unsorted).
func (r Repeat) Occurrences() []int {
	out := make([]int, 0, r.hi-r.lo+1)
	for i := r.lo; i <= r.hi; i++ {
		out = append(out, int(r.arr.sa[i]))
	}
	return out
}

// Label returns the repeated subsequence.
func (r Repeat) Label() []uint32 {
	return r.arr.seq[r.Ord : r.Ord+r.Length]
}

// Repeats enumerates the LCP intervals with Length >= minLen and
// Count >= minCount — exactly the internal nodes of the suffix tree — in
// no particular order. The classic stack algorithm walks the LCP table
// once; every completed child (a leaf sa[i-1] or a popped interval) is
// offered to its parent frame, which keeps the two smallest child minima
// for Ord.
func (a *Array) Repeats(minLen, minCount int) []Repeat {
	if minCount < 2 {
		minCount = 2
	}
	n := len(a.seq)
	if n == 0 {
		return nil
	}
	type frame struct {
		lcp        int32
		lo         int
		min1, min2 int32 // the two smallest child minima
	}
	var out []Repeat
	var stack []frame
	offer := func(f *frame, c int32) {
		if c < f.min1 {
			f.min1, f.min2 = c, f.min1
		} else if c < f.min2 {
			f.min2 = c
		}
	}
	emit := func(f frame, hi int) {
		count := hi - f.lo + 1
		if int(f.lcp) >= minLen && count >= minCount {
			out = append(out, Repeat{
				Length: int(f.lcp), Count: count, Ord: int(f.min2),
				lo: f.lo, hi: hi, arr: a,
			})
		}
	}
	for i := 1; i < n; i++ {
		lo := i - 1
		child := a.sa[i-1]
		for len(stack) > 0 && stack[len(stack)-1].lcp > a.lcp[i] {
			top := &stack[len(stack)-1]
			offer(top, child)
			emit(*top, i-1)
			lo, child = top.lo, top.min1
			stack = stack[:len(stack)-1]
		}
		switch {
		case len(stack) > 0 && stack[len(stack)-1].lcp == a.lcp[i]:
			offer(&stack[len(stack)-1], child)
		case a.lcp[i] > 0:
			stack = append(stack, frame{lcp: a.lcp[i], lo: lo, min1: child, min2: math.MaxInt32})
		}
	}
	child := a.sa[n-1]
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		offer(top, child)
		emit(*top, n-1)
		child = top.min1
		stack = stack[:len(stack)-1]
	}
	return out
}
