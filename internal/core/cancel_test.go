package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/outline"
	"repro/internal/reoutline"
)

// TestStageEntriesHonourCancelledContext pins the cancellation contract of
// every context-first pipeline entry: on a pre-cancelled context each one
// returns an error that wraps context.Canceled (the call graph, which has
// no error result, returns a nil graph instead), at the serial and the
// parallel width.
func TestStageEntriesHonourCancelledContext(t *testing.T) {
	app, _ := testApp(t, 40)
	ltbo, err := BuildCtx(t.Context(), app, CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	cto, err := BuildCtx(t.Context(), app, CTOOnly())
	if err != nil {
		t.Fatal(err)
	}
	img := ltbo.Image
	// compiled returns a fresh CTO compile: outlining rewrites methods in
	// place, so no two cases share them.
	compiled := func(t *testing.T) []*codegen.CompiledMethod {
		t.Helper()
		cms, err := codegen.CompileCtx(t.Context(), app, codegen.Options{CTO: true, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		return cms
	}

	cases := []struct {
		name string
		run  func(t *testing.T, ctx context.Context, workers int) error
	}{
		{"codegen.CompileCtx", func(t *testing.T, ctx context.Context, workers int) error {
			_, err := codegen.CompileCtx(ctx, app, codegen.Options{CTO: true, Optimize: true, Workers: workers})
			return err
		}},
		{"outline.RunCtx", func(t *testing.T, ctx context.Context, workers int) error {
			_, _, err := outline.RunCtx(ctx, compiled(t), outline.Options{Workers: workers})
			return err
		}},
		{"outline.RunCtx/shards=4", func(t *testing.T, ctx context.Context, workers int) error {
			_, _, err := outline.RunCtx(ctx, compiled(t), outline.Options{DetectShards: 4, Workers: workers})
			return err
		}},
		{"outline.VerifyRewriteCtx", func(t *testing.T, ctx context.Context, workers int) error {
			cms := compiled(t)
			snap := outline.Snap(cms)
			blobs, _, err := outline.RunCtx(t.Context(), cms, outline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return outline.VerifyRewriteCtx(ctx, cms, snap, blobs, workers, nil)
		}},
		{"analysis.AnalyzeCtx", func(t *testing.T, ctx context.Context, workers int) error {
			_, err := analysis.AnalyzeCtx(ctx, img, workers, nil)
			return err
		}},
		{"analysis.LintCtx", func(t *testing.T, ctx context.Context, workers int) error {
			_, err := analysis.LintCtx(ctx, img, workers, nil)
			return err
		}},
		{"analysis.DebloatCtx", func(t *testing.T, ctx context.Context, workers int) error {
			_, _, err := analysis.DebloatCtx(ctx, img, analysis.RootSet{}, workers, nil)
			return err
		}},
		{"analysis.RunRules", func(t *testing.T, ctx context.Context, workers int) error {
			_, err := analysis.RunRules(ctx, img, nil, nil, analysis.RootSet{}, workers, nil)
			return err
		}},
		// The pair need not be related: cancellation fires before any
		// rule compares the two images.
		{"analysis.RunRules/paired", func(t *testing.T, ctx context.Context, workers int) error {
			spec, err := analysis.ParseRuleSpec("all")
			if err != nil {
				t.Fatal(err)
			}
			_, err = analysis.RunRules(ctx, img, cto.Image, spec, analysis.RootSet{}, workers, nil)
			return err
		}},
		{"reoutline.RunCtx", func(t *testing.T, ctx context.Context, workers int) error {
			_, _, err := reoutline.RunCtx(ctx, cto.Image, reoutline.Config{Workers: workers})
			return err
		}},
		{"core.BuildCtx", func(t *testing.T, ctx context.Context, workers int) error {
			cfg := CTOLTBO()
			cfg.Workers = workers
			_, err := BuildCtx(ctx, app, cfg)
			return err
		}},
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				if err := c.run(t, ctx, workers); !errors.Is(err, context.Canceled) {
					t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
				}
			}
		})
	}
	t.Run("analysis.BuildCallGraphCtx", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			if cg, _ := analysis.BuildCallGraphCtx(ctx, img, workers); cg != nil {
				t.Errorf("workers=%d: call graph recovered under a cancelled context", workers)
			}
		}
	})
}
