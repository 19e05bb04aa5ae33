package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	got := tail(xs, 10)
	if got.Value != 90 || got.Pct != 90 || got.Beyond != 10 || got.N != 100 {
		t.Fatalf("tail of 1..100 = %+v, want p90 = 90 with 10 beyond", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples lie beyond the reported tail, want 10", beyond)
	}

	// 24 samples: the highest rank with 10 beyond is rank 14, p58.3.
	xs = xs[:0]
	for i := 1; i <= 24; i++ {
		xs = append(xs, float64(i))
	}
	got = tail(xs, 10)
	if got.Value != 14 || math.Abs(got.Pct-100*14.0/24) > 1e-9 || got.Beyond != 10 {
		t.Fatalf("tail of 1..24 = %+v, want rank 14 (p58.3)", got)
	}

	// Exactly 11 samples is the smallest sample with a real tail.
	got = tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 10)
	if got.Value != 1 || got.Beyond != 10 {
		t.Fatalf("tail of 11 samples = %+v, want the minimum with 10 beyond", got)
	}
}

func TestTailSmallSampleFallsBackToMedian(t *testing.T) {
	got := tail([]float64{5, 1, 3, 2, 4}, 10)
	if got.Value != 3 || got.Pct != 50 || got.Beyond != 2 || got.N != 5 {
		t.Fatalf("tail of 5 samples = %+v, want the median with 2 beyond", got)
	}
	if got := tail(nil, 10); got != (tailStat{}) {
		t.Fatalf("tail of no samples = %+v, want zero", got)
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{0.5, 2})
	if err != nil || math.Abs(g-1) > 1e-12 {
		t.Fatalf("geomean(0.5, 2) = %v, %v; want 1", g, err)
	}
	g, err = geomean([]float64{0.8, 0.8, 0.8})
	if err != nil || math.Abs(g-0.8) > 1e-12 {
		t.Fatalf("geomean of equal ratios = %v, %v; want 0.8", g, err)
	}
	// A geomean of ratios is the ratio of the geomeans.
	num, den := []float64{3, 5, 11}, []float64{4, 7, 13}
	var ratios []float64
	for i := range num {
		ratios = append(ratios, num[i]/den[i])
	}
	gr, _ := geomean(ratios)
	gn, _ := geomean(num)
	gd, _ := geomean(den)
	if math.Abs(gr-gn/gd) > 1e-12 {
		t.Fatalf("geomean of ratios %v != ratio of geomeans %v", gr, gn/gd)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) accepted a non-positive or empty sample", bad)
		}
	}
}

func TestResidualAndOverhead(t *testing.T) {
	if r := residual(100, []float64{40, 30, 20}); r != 10 {
		t.Fatalf("residual = %v, want 10", r)
	}
	// Layers that overshoot the untraced time give a negative residual;
	// it must not be clamped, or tracing overhead would hide.
	if r := residual(50, []float64{40, 30}); r != -20 {
		t.Fatalf("residual = %v, want -20", r)
	}
	if r := residual(12.5, nil); r != 12.5 {
		t.Fatalf("residual with no layers = %v, want the whole op", r)
	}
	if p := overheadPct(110, 100); math.Abs(p-10) > 1e-12 {
		t.Fatalf("overheadPct(110, 100) = %v, want 10", p)
	}
	if p := overheadPct(95, 100); math.Abs(p+5) > 1e-12 {
		t.Fatalf("overheadPct(95, 100) = %v, want -5", p)
	}
	if p := overheadPct(1, 0); p != 0 {
		t.Fatalf("overheadPct with no untraced time = %v, want 0", p)
	}
}

func TestZipfCounts(t *testing.T) {
	got := zipfCounts(7, 24)
	want := []int{11, 5, 3, 2, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zipfCounts(7, 24) = %v, want %v", got, want)
		}
	}
	for _, total := range []int{7, 10, 24, 100} {
		sum := 0
		for i, c := range zipfCounts(7, total) {
			if c < 1 {
				t.Errorf("zipfCounts(7, %d): app %d gets no submissions", total, i)
			}
			sum += c
		}
		if sum != total {
			t.Errorf("zipfCounts(7, %d) sums to %d", total, sum)
		}
	}
}
