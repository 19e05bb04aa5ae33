package analysis_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/workload"
)

// lintSink keeps the compiler from discarding the measured call.
var lintSink []analysis.Finding

// BenchmarkLint lints the largest ladder app's CTOLTBO image on one
// worker: the per-image cost every verified build, re-outline admission
// and paired re-verify pays. Kuaishou runs at scale 1.0; -short shrinks
// it so make bench-smoke only proves the benchmark still runs.
func BenchmarkLint(b *testing.B) {
	scale := 1.0
	if testing.Short() {
		scale = 0.05
	}
	prof, ok := workload.AppByName("Kuaishou", scale)
	if !ok {
		b.Fatal("Kuaishou profile missing")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.BuildCtx(b.Context(), app, core.CTOLTBO())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := analysis.LintCtx(context.Background(), res.Image, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(fs) != 0 {
			b.Fatalf("clean build has %d findings, first %s", len(fs), fs[0])
		}
		lintSink = fs
	}
}
