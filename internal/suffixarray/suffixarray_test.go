package suffixarray

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func sym(s string) []uint32 {
	out := make([]uint32, len(s))
	for i := range s {
		out[i] = uint32(s[i])
	}
	return out
}

// labelOf renders a symbol label as text for the byte-symbol tests.
func labelOf(r Repeat) string {
	label := ""
	for _, s := range r.Label() {
		label += string(rune(s))
	}
	return label
}

// bruteOccurrences finds all occurrences of needle in hay, ascending.
func bruteOccurrences(hay, needle []uint32) []int {
	var occ []int
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for k := range needle {
			if hay[i+k] != needle[k] {
				continue outer
			}
		}
		occ = append(occ, i)
	}
	return occ
}

// randomSeq draws a sequence over a small alphabet with unique separator
// symbols sprinkled in, like a basic-block-delimited instruction stream,
// and a unique terminator.
func randomSeq(r *rand.Rand, n int) []uint32 {
	seq := make([]uint32, n)
	alpha := 1 + r.Intn(6)
	sep := uint32(1 << 20)
	for i := range seq {
		if r.Intn(10) == 0 {
			sep++
			seq[i] = sep
		} else {
			seq[i] = uint32(r.Intn(alpha))
		}
	}
	return append(seq, sep+1)
}

func TestSuffixArrayOrder(t *testing.T) {
	seq := sym("banana$")
	a := Build(seq)
	// Verify lexicographic order directly.
	sa := a.SA()
	less := func(i, j int32) bool {
		x, y := seq[i:], seq[j:]
		for k := 0; k < len(x) && k < len(y); k++ {
			if x[k] != y[k] {
				return x[k] < y[k]
			}
		}
		return len(x) < len(y)
	}
	for i := 1; i < len(sa); i++ {
		if !less(sa[i-1], sa[i]) {
			t.Fatalf("sa not sorted at %d: %v", i, sa)
		}
	}
	// LCP sanity: lcp of "ana..." suffixes.
	found3 := false
	for _, l := range a.LCP() {
		if l == 3 {
			found3 = true // "ana" shared between "ana$" and "anana$"
		}
	}
	if !found3 {
		t.Errorf("lcp table %v lacks the ana overlap", a.LCP())
	}
}

// TestRepeatsMatchBananaTree: the repeats of "banana$" are exactly the
// three internal nodes of its suffix tree — "a" x3, "ana" x2, "na" x2.
func TestRepeatsMatchBananaTree(t *testing.T) {
	a := Build(sym("banana$"))
	got := map[string]int{}
	for _, r := range a.Repeats(1, 2) {
		got[labelOf(r)] = r.Count
	}
	want := map[string]int{"a": 3, "ana": 2, "na": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("repeats = %v, want %v", got, want)
	}
}

// TestBananaTree reproduces the paper's Figure 1 example on the suffix
// array: one suffix per position, and the repeat families at the tree's
// internal nodes. ("an" and "n" repeat too but are always followed by
// "a", so they live on the edges into "ana"/"na" rather than at nodes.)
func TestBananaTree(t *testing.T) {
	seq := sym("banana$")
	a := Build(seq)
	if len(a.SA()) != len(seq) {
		t.Errorf("suffixes = %d, want %d (one per position)", len(a.SA()), len(seq))
	}
	found := map[string]int{}
	for _, r := range a.Repeats(1, 2) {
		found[labelOf(r)] = r.Count
	}
	want := map[string]int{"a": 3, "ana": 2, "na": 2}
	if !reflect.DeepEqual(found, want) {
		t.Errorf("repeats = %v, want %v", found, want)
	}
	// The rightmost example in §2.1.2: "na" occurs twice, at 2 and 4.
	sawNA := false
	for _, r := range a.Repeats(2, 2) {
		if labelOf(r) == "na" {
			sawNA = true
			occ := r.Occurrences()
			sort.Ints(occ)
			if !reflect.DeepEqual(occ, []int{2, 4}) {
				t.Errorf("na occurrences = %v", occ)
			}
		}
	}
	if !sawNA {
		t.Error("Repeats(2, 2) lacks na")
	}
}

func TestMississippi(t *testing.T) {
	var got []int
	for _, r := range Build(sym("mississippi$")).Repeats(4, 2) {
		if labelOf(r) == "issi" {
			got = r.Occurrences()
			sort.Ints(got)
		}
	}
	if !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("issi occurrences = %v", got)
	}
}

// oracleRepeat is one repeat as the brute-force oracle derives it.
type oracleRepeat struct {
	occ []int // ascending
	ord int
}

// bruteRepeats lists the right-branching repeats of seq — substrings that
// occur at least twice and are followed by at least two distinct symbols —
// keyed by label. The expected Ord follows the suffix-tree definition: the
// start of the leftmost occurrence whose next symbol differs from the next
// symbol of the leftmost occurrence overall.
func bruteRepeats(seq []uint32) map[string]oracleRepeat {
	out := map[string]oracleRepeat{}
	for i := range seq {
		for l := 1; i+l <= len(seq); l++ {
			label := seq[i : i+l]
			key := fmt.Sprint(label)
			if _, seen := out[key]; seen {
				continue
			}
			occ := bruteOccurrences(seq, label)
			if len(occ) < 2 {
				break // longer labels from i occur no more often
			}
			next := func(o int) int64 {
				if o+l < len(seq) {
					return int64(seq[o+l])
				}
				return -1
			}
			ord := -1
			for _, o := range occ[1:] {
				if next(o) != next(occ[0]) {
					ord = o
					break
				}
			}
			if ord >= 0 {
				out[key] = oracleRepeat{occ: occ, ord: ord}
			}
		}
	}
	return out
}

// TestRepeatsMatchBruteForce checks Repeats against the brute-force
// oracle on random separator-delimited sequences: the same repeat
// families, with the same counts, occurrence sets and ordinals.
func TestRepeatsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		seq := randomSeq(r, 10+r.Intn(120))
		want := bruteRepeats(seq)
		got := map[string]oracleRepeat{}
		for _, rep := range Build(seq).Repeats(1, 2) {
			occ := rep.Occurrences()
			sort.Ints(occ)
			if rep.Count != len(occ) {
				t.Fatalf("trial %d: %v count %d, %d occurrences", trial, rep.Label(), rep.Count, len(occ))
			}
			got[fmt.Sprint(rep.Label())] = oracleRepeat{occ: occ, ord: rep.Ord}
		}
		if !reflect.DeepEqual(got, want) {
			for k, w := range want {
				if g, ok := got[k]; !ok || !reflect.DeepEqual(g, w) {
					t.Fatalf("trial %d: repeat %s = %+v (found %v), want %+v", trial, k, g, ok, w)
				}
			}
			t.Fatalf("trial %d: %d repeats, oracle has %d", trial, len(got), len(want))
		}
	}
}

// TestOccurrencesMatchBruteForce cross-checks every repeat's occurrence
// list and count against a naive scanner on random separator-free
// sequences, where repeats run long and overlap.
func TestOccurrencesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 5 + r.Intn(120)
		alpha := 2 + r.Intn(5)
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = uint32(r.Intn(alpha))
		}
		seq = append(seq, 0xFFFFFFFF) // unique terminator
		a := Build(seq)
		if len(a.SA()) != len(seq) {
			t.Fatalf("trial %d: suffixes = %d, want %d", trial, len(a.SA()), len(seq))
		}
		for _, rep := range a.Repeats(1, 2) {
			label := rep.Label()
			want := bruteOccurrences(seq, label)
			got := rep.Occurrences()
			sort.Ints(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: occurrences of %v = %v, want %v", trial, label, got, want)
			}
			if rep.Count != len(want) {
				t.Fatalf("trial %d: count of %v = %d, want %d", trial, label, rep.Count, len(want))
			}
		}
	}
}

// TestLongestRepeatMatchesBruteForce compares the longest repeated
// substring length against brute force.
func TestLongestRepeatMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(80)
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = uint32(r.Intn(3))
		}
		seq = append(seq, 0xFFFFFFFF)

		brute := 0
		for length := 1; length < len(seq); length++ {
			found := false
			for i := 0; i+length <= len(seq) && !found; i++ {
				if len(bruteOccurrences(seq, seq[i:i+length])) >= 2 {
					found = true
				}
			}
			if !found {
				break
			}
			brute = length
		}
		longest := 0
		for _, rep := range Build(seq).Repeats(1, 2) {
			if rep.Length > longest {
				longest = rep.Length
			}
		}
		if longest != brute {
			t.Fatalf("trial %d: longest repeat %d, brute force %d", trial, longest, brute)
		}
	}
}

// TestSeparatorsConfineRepeats: symbols unique to one position can never
// appear inside a repeat, the property §3.3.2 relies on.
func TestSeparatorsConfineRepeats(t *testing.T) {
	// Three identical blocks joined by unique separators.
	var seq []uint32
	block := []uint32{7, 8, 9, 7, 8, 9}
	sep := uint32(1 << 20)
	for i := 0; i < 3; i++ {
		seq = append(seq, block...)
		seq = append(seq, sep+uint32(i))
	}
	reps := Build(seq).Repeats(1, 2)
	if len(reps) == 0 {
		t.Fatal("no repeats across identical blocks")
	}
	for _, rep := range reps {
		for _, s := range rep.Label() {
			if s >= sep {
				t.Fatalf("separator %#x inside repeat %v", s, rep.Label())
			}
		}
	}
}

// TestIntervalsScaleLinearly: a structural bound — a suffix tree over n
// symbols has at most n-1 internal nodes, so the array yields at most n-1
// repeats.
func TestIntervalsScaleLinearly(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	seq := make([]uint32, 20000)
	for i := range seq {
		seq[i] = uint32(r.Intn(16))
	}
	seq = append(seq, 0xFFFFFFFF)
	if got := len(Build(seq).Repeats(1, 2)); got > len(seq)-1 {
		t.Errorf("repeats = %d for n = %d", got, len(seq))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if a := Build(nil); a.Len() != 0 || len(a.Repeats(1, 2)) != 0 {
		t.Error("empty sequence mishandled")
	}
	if a := Build([]uint32{7}); len(a.Repeats(1, 2)) != 0 {
		t.Error("singleton produced repeats")
	}
}

func TestLCPKasaiAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(120)
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = uint32(r.Intn(4))
		}
		seq = append(seq, 0xFFFFFFFF)
		a := Build(seq)
		sa, lcp := a.SA(), a.LCP()
		for i := 1; i < len(sa); i++ {
			want := 0
			x, y := int(sa[i-1]), int(sa[i])
			for x+want < len(seq) && y+want < len(seq) && seq[x+want] == seq[y+want] {
				want++
			}
			if int(lcp[i]) != want {
				t.Fatalf("trial %d: lcp[%d] = %d, want %d", trial, i, lcp[i], want)
			}
		}
	}
}
