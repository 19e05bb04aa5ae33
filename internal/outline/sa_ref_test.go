package outline

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/codegen"
	"repro/internal/suffixarray"
	"repro/internal/workload"
)

// This file keeps the original sort.Slice prefix-doubling construction of
// the suffix array as a test-only reference. The production builder
// (internal/suffixarray) uses counting-sort rounds; a sequence has exactly
// one suffix array, so the differential test requires identical SA and LCP
// tables on the real detector inputs: the global CTO sequences of the
// ladder apps. It lives here because those sequences come from the
// unexported buildSequence.

// referenceBuild returns the suffix array and LCP table of seq by prefix
// doubling with a comparison sort per round and Kasai's LCP.
func referenceBuild(seq []uint32) (sa, lcp []int32) {
	n := len(seq)
	sa, lcp = make([]int32, n), make([]int32, n)
	if n == 0 {
		return sa, lcp
	}
	rank := make([]int64, n)
	tmp := make([]int64, n)
	for i, s := range seq {
		sa[i] = int32(i)
		rank[i] = int64(s)
	}
	key := func(i int32, k int) int64 {
		if int(i)+k < n {
			return rank[int(i)+k]
		}
		return -1
	}
	for k := 1; ; k *= 2 {
		sort.Slice(sa, func(x, y int) bool {
			ix, iy := sa[x], sa[y]
			if rank[ix] != rank[iy] {
				return rank[ix] < rank[iy]
			}
			return key(ix, k) < key(iy, k)
		})
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			prev, cur := sa[i-1], sa[i]
			tmp[cur] = tmp[prev]
			if rank[prev] != rank[cur] || key(prev, k) != key(cur, k) {
				tmp[cur]++
			}
		}
		copy(rank, tmp)
		if rank[sa[n-1]] == int64(n-1) {
			break // all distinct: fully sorted
		}
	}

	pos := make([]int32, n) // suffix -> position in sa
	for i, s := range sa {
		pos[s] = int32(i)
	}
	h := 0
	for i := 0; i < n; i++ {
		p := pos[i]
		if p == 0 {
			h = 0
			continue
		}
		j := int(sa[p-1])
		for i+h < n && j+h < n && seq[i+h] == seq[j+h] {
			h++
		}
		lcp[p] = int32(h)
		if h > 0 {
			h--
		}
	}
	return sa, lcp
}

// globalCTOSequence compiles a ladder app with CTO and returns the
// sequence a single-tree LTBO build hands the detector: every candidate
// method, no hot filtering.
func globalCTOSequence(tb testing.TB, app string, scale float64) []uint32 {
	tb.Helper()
	prof, ok := workload.AppByName(app, scale)
	if !ok {
		tb.Fatalf("unknown app %q", app)
	}
	dx, _, err := workload.Generate(prof)
	if err != nil {
		tb.Fatal(err)
	}
	methods, err := codegen.CompileCtx(tb.Context(), dx, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		tb.Fatal(err)
	}
	units := make([]methodSeq, len(methods))
	var group []int
	for i, cm := range methods {
		if !cm.Meta.IsNative && !cm.Meta.HasIndirectJump {
			units[i] = methodSeq{cm: cm}
			group = append(group, i)
		}
	}
	seq, _, err := buildSequence(tb.Context(), units, group, Options{}.withDefaults(), &Stats{})
	if err != nil {
		tb.Fatal(err)
	}
	return seq
}

// TestSuffixArrayMatchesReferenceOnLadder requires the counting-sort
// builder to reproduce the reference construction exactly on the six
// ladder apps' global CTO sequences.
func TestSuffixArrayMatchesReferenceOnLadder(t *testing.T) {
	for _, prof := range workload.Apps(0.05) {
		t.Run(prof.Name, func(t *testing.T) {
			seq := globalCTOSequence(t, prof.Name, 0.05)
			wantSA, wantLCP := referenceBuild(seq)
			arr := suffixarray.Build(seq)
			if !slices.Equal(arr.SA(), wantSA) {
				t.Errorf("SA differs from the reference over %d symbols", len(seq))
			}
			if !slices.Equal(arr.LCP(), wantLCP) {
				t.Errorf("LCP differs from the reference over %d symbols", len(seq))
			}
		})
	}
}

// BenchmarkSuffixArrayBuild times suffix-array plus LCP construction on a
// real detector input: Kuaishou's global CTO sequence at full scale
// (scale 0.05 under -short).
func BenchmarkSuffixArrayBuild(b *testing.B) {
	scale := 1.0
	if testing.Short() {
		scale = 0.05
	}
	seq := globalCTOSequence(b, "Kuaishou", scale)
	b.Run(fmt.Sprintf("n=%d", len(seq)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if arr := suffixarray.Build(seq); len(arr.SA()) != len(seq) {
				b.Fatal("bad suffix array")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(seq)), "ns/symbol")
	})
}
