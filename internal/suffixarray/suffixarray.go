// Package suffixarray is Calibro's repeat detector: a suffix array with an
// LCP table over sequences of uint32 symbols. The paper uses Ukkonen's
// suffix tree (§2.1.2, §3.3.2); the LCP intervals of a suffix array are
// exactly the suffix tree's internal nodes, so the same repeat families
// come out of three integer arrays instead of a pointer-and-map tree — the
// memory footprint the paper's global tree exhausts at production scale
// (§3.4/§4.4).
//
// Construction is Manber–Myers prefix doubling with counting sorts: a
// first pass sorts suffixes by their leading symbol, and each round
// doubles the sorted prefix length in O(n) with a linear pass for the
// second key and a stable counting sort by the first. Construction stops
// once every suffix has its own class, after ⌈log₂(L+1)⌉+1 passes where
// L is the longest repeat (the maximum LCP), so the whole build costs
// O(n log L). Kasai's algorithm (O(n)) then fills the LCP table.
//
// Sequences are instruction words mapped to symbols by the outliner; every
// basic-block terminator is mapped to a symbol unique to its position, so
// no repeated substring can cross a basic-block boundary (§3.3.2), and
// concatenating many methods with unique separators yields one structure
// over the whole program.
package suffixarray

import (
	"math"
	"slices"
)

// Array is a built suffix array with its LCP table.
type Array struct {
	seq []uint32
	sa  []int32 // suffix start positions in lexicographic order
	lcp []int32 // lcp[i] = longest common prefix of sa[i-1] and sa[i]; lcp[0]=0
}

// Build constructs the suffix array of seq. A suffix that is a proper
// prefix of another sorts first. The caller terminates sequences with
// unique separator symbols.
func Build(seq []uint32) *Array {
	n := len(seq)
	a := &Array{seq: seq, sa: make([]int32, n), lcp: make([]int32, n)}
	if n == 0 {
		return a
	}
	sa := a.sa
	// rank[i] is the class of suffix i under the current prefix length:
	// the sa position where its class begins, so suffixes with equal
	// prefixes share a rank and ranks order like the prefixes. cur is the
	// counting sort's per-class cursor, and order (the LCP table, unused
	// until Kasai) holds the suffixes ordered by the second key.
	rank := make([]int32, n)
	cur := make([]int32, n)
	order := a.lcp
	sortBySymbol(seq, sa, cur)
	classes := 1
	rank[sa[0]] = 0
	for i := 1; i < n; i++ {
		if seq[sa[i]] != seq[sa[i-1]] {
			classes++
			rank[sa[i]] = int32(i)
		} else {
			rank[sa[i]] = rank[sa[i-1]]
		}
	}

	for k := 1; classes < n; k *= 2 {
		// Order by the second key, the rank of suffix s+k. Suffixes with
		// s+k >= n have none and come first, so a proper prefix sorts
		// before its extensions; then s = sa[j]-k in the order of sa.
		j := 0
		for i := max(n-k, 0); i < n; i++ {
			order[j] = int32(i)
			j++
		}
		for _, s := range sa {
			if int(s) >= k {
				order[j] = s - int32(k)
				j++
			}
		}
		// Stable counting sort by the first key. A class's bucket starts
		// at its rank, so the cursors start at the identity.
		for i := range cur {
			cur[i] = int32(i)
		}
		for _, s := range order {
			r := rank[s]
			sa[cur[r]] = s
			cur[r]++
		}
		// Re-rank into cur: a new class begins wherever the (first,
		// second) key pair changes along sa.
		second := func(s int32) int32 {
			if int(s)+k < n {
				return rank[int(s)+k]
			}
			return -1
		}
		next := cur
		next[sa[0]] = 0
		classes = 1
		for i := 1; i < n; i++ {
			p, s := sa[i-1], sa[i]
			if rank[p] != rank[s] || second(p) != second(s) {
				classes++
				next[s] = int32(i)
			} else {
				next[s] = next[p]
			}
		}
		rank, cur = next, rank
	}

	// Kasai's LCP. Every class is a singleton now, so rank[i] is the
	// position of suffix i in sa: the inverse array Kasai walks.
	a.lcp[0] = 0
	h := 0
	for i := 0; i < n; i++ {
		p := rank[i]
		if p == 0 {
			h = 0
			continue
		}
		j := int(sa[p-1])
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

// sortBySymbol fills sa with the positions of seq ordered by symbol. The
// outliner's symbolizer emits dense ids below len(seq), which a counting
// sort (counts in scratch when they fit) orders in O(n); arbitrary uint32
// alphabets with a largest symbol of 2n or more fall back to sorting
// packed (symbol, position) keys.
func sortBySymbol(seq []uint32, sa, scratch []int32) {
	n := len(seq)
	top := slices.Max(seq)
	if uint64(top) >= 2*uint64(n) {
		keys := make([]uint64, n)
		for i, s := range seq {
			keys[i] = uint64(s)<<32 | uint64(i)
		}
		slices.Sort(keys)
		for i, key := range keys {
			sa[i] = int32(uint32(key))
		}
		return
	}
	var cnt []int32
	if int(top) < n {
		cnt = scratch[:top+1]
		clear(cnt)
	} else {
		cnt = make([]int32, top+1)
	}
	for _, s := range seq {
		cnt[s]++
	}
	sum := int32(0)
	for s, c := range cnt {
		cnt[s] = sum
		sum += c
	}
	for i, s := range seq {
		sa[cnt[s]] = int32(i)
		cnt[s]++
	}
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
