package analysis_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/emu"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/workload"
)

// diffRuns runs a script against the reference interpreter and an image,
// failing on any observable divergence (return value, exception, log).
// This is the acceptance check behind debloat: removal must never change
// what the scripted workload computes.
func diffRuns(t *testing.T, what string, app *dex.App, img *oat.Image, runs []workload.Run) {
	t.Helper()
	for i, run := range runs {
		ip := &hgraph.Interp{App: app, MaxDepth: 10_000}
		want, err := ip.Run(run.Entry, run.Args[:])
		if err != nil {
			t.Fatalf("%s: run %d: interp: %v", what, i, err)
		}
		got, err := emu.New(img).Run(run.Entry, run.Args[:])
		if err != nil {
			t.Fatalf("%s: run %d: emu: %v", what, i, err)
		}
		if got.Ret != want.Ret || got.Exc != want.Exc || !reflect.DeepEqual(got.Log, want.Log) {
			t.Errorf("%s: run %d (m%d): ret=%d exc=%v log=%v, want ret=%d exc=%v log=%v",
				what, i, run.Entry, got.Ret, got.Exc, got.Log, want.Ret, want.Exc, want.Log)
		}
	}
}

// TestDebloatLadder is the debloat acceptance gate over the full
// evaluation ladder: for every app profile under every configuration, the
// pass must emit a strictly-smaller-or-equal image that lints clean, is
// byte-identical when debloated again (idempotence), and preserves the
// scripted workload's observable behavior against the reference
// interpreter — i.e. zero false-positive unreachable classifications for
// anything the differential tests exercise.
func TestDebloatLadder(t *testing.T) {
	for _, prof := range workload.Apps(ladderScale()) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			app, man, err := workload.Generate(prof)
			if err != nil {
				t.Fatal(err)
			}
			roots := analysis.RootSet{Methods: man.Drivers}
			runs := workload.Script(man, 2, 1)
			for _, c := range ladderConfigs() {
				res, err := core.BuildCtx(t.Context(), app, c.cfg)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				out, stats, err := analysis.DebloatCtx(t.Context(), res.Image, roots, 0, nil)
				if err != nil {
					t.Fatalf("%s: debloat: %v", c.name, err)
				}
				if stats.Imprecise {
					t.Errorf("%s: reachability imprecise on a clean build", c.name)
				}
				if stats.TextAfter > stats.TextBefore {
					t.Errorf("%s: debloat grew text: %d -> %d bytes", c.name, stats.TextBefore, stats.TextAfter)
				}
				if out.TextBytes() != stats.TextAfter {
					t.Errorf("%s: stats.TextAfter=%d, image has %d", c.name, stats.TextAfter, out.TextBytes())
				}
				if len(out.Methods) != len(res.Image.Methods) {
					t.Fatalf("%s: debloat renumbered the method table: %d -> %d records",
						c.name, len(res.Image.Methods), len(out.Methods))
				}

				// Idempotence: a second pass removes nothing and the image
				// round-trips byte-identically.
				out2, stats2, err := analysis.DebloatCtx(t.Context(), out, roots, 0, nil)
				if err != nil {
					t.Fatalf("%s: re-debloat: %v", c.name, err)
				}
				if stats2.MethodsRemoved != 0 || stats2.BlobsRemoved != 0 || stats2.ThunksRemoved != 0 {
					t.Errorf("%s: second debloat removed more: %d methods, %d blobs, %d thunks",
						c.name, stats2.MethodsRemoved, stats2.BlobsRemoved, stats2.ThunksRemoved)
				}
				b1, err := out.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				b2, err := out2.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b1, b2) {
					t.Errorf("%s: debloat is not idempotent: %d vs %d bytes", c.name, len(b1), len(b2))
				}

				diffRuns(t, c.name, app, out, runs)
			}
		})
	}
}

// debloatText is a hand-written app with a method no root reaches:
// method IDs are assignment order, so used=0, orphan=1, main=2.
const debloatText = `
.app Deb
.file classes.dex
.class LMain
.method used regs=2 ins=2
    add v0, v0, v1
    return v0
.end method
.method orphan regs=2 ins=2
    mul v0, v0, v1
    return v0
.end method
.method main regs=3 ins=2
    invoke v0, LMain.used (v1, v2)
    invoke-native v0, pLogValue (v0, v0)
    return v0
.end method
.end class
.end file
`

// TestDebloatRemovesUncalled pins that debloat actually deletes: an
// explicitly uncalled method is stubbed out under explicit roots, kept
// under the conservative default root set, and the survivor still runs.
func TestDebloatRemovesUncalled(t *testing.T) {
	app, err := dex.ParseText(debloatText)
	if err != nil {
		t.Fatal(err)
	}
	const used, orphan, main = dex.MethodID(0), dex.MethodID(1), dex.MethodID(2)
	res, err := core.BuildCtx(t.Context(), app, core.CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}

	out, stats, err := analysis.DebloatCtx(t.Context(), res.Image, analysis.RootSet{Methods: []dex.MethodID{main}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Methods[orphan].Size != 0 {
		t.Errorf("orphan kept %d bytes of code", out.Methods[orphan].Size)
	}
	if out.Methods[used].Size == 0 || out.Methods[main].Size == 0 {
		t.Error("a live method was stubbed out")
	}
	if stats.MethodsRemoved != 1 || len(stats.DeadMethods) != 1 || stats.DeadMethods[0] != orphan {
		t.Errorf("stats: removed=%d dead=%v, want orphan only", stats.MethodsRemoved, stats.DeadMethods)
	}
	if stats.TextAfter >= stats.TextBefore {
		t.Errorf("removal did not shrink text: %d -> %d", stats.TextBefore, stats.TextAfter)
	}
	diffRuns(t, "explicit roots", app, out, []workload.Run{
		{Entry: main, Args: [2]int64{3, 4}},
		{Entry: main, Args: [2]int64{-7, 11}},
	})

	// Under the default no-caller roots the orphan is itself a root: the
	// conservative root set only deletes orphaned clusters that *are*
	// called, by other dead code.
	_, dstats, err := analysis.DebloatCtx(t.Context(), res.Image, analysis.DefaultRoots(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dstats.MethodsRemoved != 0 {
		t.Errorf("default roots removed %d methods from a fully-rooted image", dstats.MethodsRemoved)
	}
}
