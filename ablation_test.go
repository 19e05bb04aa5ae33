package calibro

// Ablation benchmarks for the design decisions DESIGN.md §4 calls out:
// minimum repeat length, the benefit-model threshold, the hot-set coverage
// fraction, the number of parallel trees, and multi-round outlining. Each
// prints a small sweep table; none corresponds to a paper table — they
// probe *why* the design is what it is.

import (
	"fmt"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/oat"
	"repro/internal/outline"
	"repro/internal/report"
)

// ablationApp returns a mid-size app bundle (Taobao) for the sweeps.
func ablationApp(b *testing.B) *appBundle {
	return suite(b)[1]
}

func outlineWith(b *testing.B, ab *appBundle, opts outline.Options) (*oat.Image, *outline.Stats) {
	methods, err := codegen.CompileCtx(b.Context(), ab.app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	blobs, stats, err := outline.RunCtx(b.Context(), methods, opts)
	if err != nil {
		b.Fatal(err)
	}
	img, err := oat.Link(methods, blobs)
	if err != nil {
		b.Fatal(err)
	}
	return img, stats
}

// BenchmarkAblationMinLength sweeps the minimum repeat length (§3.3
// defaults to 2: the Figure 2 model already rejects unprofitable repeats,
// so raising the floor only loses coverage).
func BenchmarkAblationMinLength(b *testing.B) {
	ab := ablationApp(b)
	base := build(b, ab, "baseline").TextBytes()
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: minimum repeat length vs reduction",
			Header: []string{"min length", "text bytes", "reduction", "functions"},
		}
		var first float64
		for _, minLen := range []int{2, 3, 4, 6, 8} {
			img, stats := outlineWith(b, ab, outline.Options{MinLength: minLen})
			red := float64(base-img.TextBytes()) / float64(base)
			if minLen == 2 {
				first = red
			}
			t.AddRow(fmt.Sprint(minLen), fmt.Sprint(img.TextBytes()),
				report.Pct(red), fmt.Sprint(stats.OutlinedFunctions))
		}
		if i == 0 {
			fmt.Println(t)
		}
		b.ReportMetric(100*first, "minlen2-reduction-%")
	}
}

// BenchmarkAblationMinBenefit sweeps the Figure 2 benefit threshold.
func BenchmarkAblationMinBenefit(b *testing.B) {
	ab := ablationApp(b)
	base := build(b, ab, "baseline").TextBytes()
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: benefit threshold (Figure 2 model) vs reduction",
			Header: []string{"min benefit", "reduction", "functions", "occurrences"},
		}
		for _, minB := range []int{1, 2, 4, 8, 16, 32} {
			img, stats := outlineWith(b, ab, outline.Options{MinBenefit: minB})
			t.AddRow(fmt.Sprint(minB),
				report.Reduction(base, img.TextBytes()),
				fmt.Sprint(stats.OutlinedFunctions), fmt.Sprint(stats.OutlinedOccurrences))
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationRounds sweeps multi-round outlining: later rounds
// recover fragments the greedy first pass left behind, with diminishing
// returns.
func BenchmarkAblationRounds(b *testing.B) {
	ab := ablationApp(b)
	base := build(b, ab, "baseline").TextBytes()
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: outlining rounds vs reduction",
			Header: []string{"rounds", "reduction", "functions", "net words saved"},
		}
		for _, rounds := range []int{1, 2, 3, 4} {
			img, stats := outlineWith(b, ab, outline.Options{Rounds: rounds})
			t.AddRow(fmt.Sprint(rounds),
				report.Reduction(base, img.TextBytes()),
				fmt.Sprint(stats.OutlinedFunctions), fmt.Sprint(stats.NetWordsSaved()))
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationHotFraction sweeps the §3.4.2 hot-set coverage rule
// (the paper uses 80% of execution time): larger fractions protect more
// code, trading size for speed.
func BenchmarkAblationHotFraction(b *testing.B) {
	ab := ablationApp(b)
	baseline := build(b, ab, "baseline")
	baseCycles, _, _ := runScript(b, baseline.Image, ab.script)
	prof, err := CollectProfile(baseline.Image, ab.script)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: hot-set coverage fraction vs size and cycles (§3.4.2, paper uses 0.80)",
			Header: []string{"coverage", "hot methods", "reduction", "cycle degradation"},
		}
		for _, frac := range []float64{0, 0.5, 0.8, 0.95} {
			cfg := core.CTOLTBOPl(8)
			if frac > 0 {
				cfg.HotFilter = true
				cfg.Profile = prof
				cfg.HotFraction = frac
			}
			res, err := core.BuildCtx(b.Context(), ab.app, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cycles, _, _ := runScript(b, res.Image, ab.script)
			hotN := 0
			if frac > 0 {
				hotN = len(prof.HotSet(frac))
			}
			t.AddRow(fmt.Sprintf("%.2f", frac), fmt.Sprint(hotN),
				report.Reduction(baseline.TextBytes(), res.TextBytes()),
				report.Pct(float64(cycles-baseCycles)/float64(baseCycles)))
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationTreeCount extends the §3.4.1 trade-off to a full sweep
// (the paper evaluates 8 trees and mentions the trade-off is tunable).
func BenchmarkAblationTreeCount(b *testing.B) {
	ab := ablationApp(b)
	base := build(b, ab, "baseline").TextBytes()
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: paralleled suffix tree count vs reduction and outline time (§3.4.1)",
			Header: []string{"trees", "reduction", "tree build", "detect"},
		}
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			img, stats := outlineWith(b, ab, outline.Options{Parallel: k})
			t.AddRow(fmt.Sprint(k),
				report.Reduction(base, img.TextBytes()),
				stats.TreeBuild.Round(100_000).String(), stats.Detect.Round(100_000).String())
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationDedup measures how much of the PlOpti loss cross-tree
// function deduplication recovers.
func BenchmarkAblationDedup(b *testing.B) {
	ab := ablationApp(b)
	base := build(b, ab, "baseline").TextBytes()
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: cross-tree function deduplication (extension beyond the paper)",
			Header: []string{"configuration", "reduction", "functions"},
		}
		for _, cfg := range []struct {
			name  string
			trees int
			dedup bool
		}{
			{"1 tree", 1, false},
			{"8 trees", 8, false},
			{"8 trees + dedup", 8, true},
		} {
			img, stats := outlineWith(b, ab, outline.Options{Parallel: cfg.trees, DedupFunctions: cfg.dedup})
			t.AddRow(cfg.name,
				report.Reduction(base, img.TextBytes()),
				fmt.Sprint(stats.OutlinedFunctions))
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationCostModel re-measures the Table 7 cycle degradation
// under the two emulator cost models: the default in-order model charges
// every extra bl/br a cycle, while the out-of-order preset (closer to the
// paper's Tensor G2) hides transfer costs and leaves the I-cache as
// outlining's main price. This quantifies how much of the Table 7 gap in
// EXPERIMENTS.md is cost model rather than algorithm.
func BenchmarkAblationCostModel(b *testing.B) {
	ab := ablationApp(b)
	baseline := build(b, ab, "baseline")
	plopti := build(b, ab, "plopti")
	hfopti := build(b, ab, "hfopti")
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: cycle degradation under different core models (paper: +1.51% / +0.90%)",
			Header: []string{"core model", "PlOpti degradation", "PlOpti+HfOpti degradation"},
		}
		for _, cm := range []struct {
			name  string
			costs emu.CostModel
		}{
			{"in-order (default)", emu.InOrderCosts},
			{"out-of-order (Tensor-G2-like)", emu.OutOfOrderCosts},
		} {
			measure := func(res *BuildResult) int64 {
				m := emu.New(res.Image)
				m.Costs = cm.costs
				var cycles int64
				for _, r := range ab.script {
					out, err := m.Run(r.Entry, r.Args[:])
					if err != nil {
						b.Fatal(err)
					}
					cycles += out.Cycles
				}
				return cycles
			}
			base := measure(baseline)
			pl := measure(plopti)
			hf := measure(hfopti)
			t.AddRow(cm.name,
				report.Pct(float64(pl-base)/float64(base)),
				report.Pct(float64(hf-base)/float64(base)))
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}
