package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/emu"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/par"
	"repro/internal/workload"
)

// scale is the reproduction scale every workload runs at. At 1.0 the
// global suffix tree's working set is large enough to matter (the
// Table 6 mechanism).
const scale = 1.0

// scriptRuns is the length of the fixed script sample each output image
// runs on the emulator, for the semantic oracle and for cycles_ratio.
const scriptRuns = 2

// appInput is one generated application and its reference data.
type appInput struct {
	name   string
	app    *dex.App
	script []workload.Run

	// baseline is the app's baseline build (Table 4's denominator).
	baseline *oat.Image

	// Filled by the gate: the interpreter's results on the script and
	// the baseline image's emulated cycles.
	ref        []hgraph.Result
	baseCycles int64
}

// seededProfiles returns the paper's six app profiles at full scale,
// optionally followed by the adversarial Obfuscated profile, each with
// its generator Seed drawn from the run seed: the program only ever sees
// generated dex.
func seededProfiles(seed int64, obfuscated bool) []workload.Profile {
	ps := workload.Apps(scale)
	if obfuscated {
		p, _ := workload.AppByName("Obfuscated", scale)
		ps = append(ps, p)
	}
	r := rand.New(rand.NewSource(seed))
	for i := range ps {
		ps[i].Seed = r.Int63()
	}
	return ps
}

// newAppInput generates p and fixes its script sample from seed.
func newAppInput(name string, p workload.Profile, seed int64) (*appInput, error) {
	app, man, err := workload.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	script := workload.Script(man, 1, seed)
	if len(script) > scriptRuns {
		script = script[:scriptRuns]
	}
	return &appInput{name: name, app: app, script: script}, nil
}

// buildBaseline builds in's baseline image, the denominator of the ratios.
func buildBaseline(ctx context.Context, in *appInput, workers int) error {
	cfg := core.Baseline()
	cfg.Workers = workers
	res, err := core.BuildCtx(ctx, in.app, cfg)
	if err != nil {
		return fmt.Errorf("baseline build of %s: %w", in.name, err)
	}
	in.baseline = res.Image
	return nil
}

// output is one distinct image a workload produced, with the number of
// timed operations that produced it.
type output struct {
	key   string
	in    *appInput
	image []byte
	ops   int
	// want, when set, is the image a direct core.BuildCtx of the same
	// input produced; the served image must equal it byte for byte.
	want []byte
}

// gateResult is what checking every distinct output found.
type gateResult struct {
	textRatio   float64
	cyclesRatio float64
	findings    int
	failedOps   int
	problems    []string
}

// reference runs in's script sample in the hgraph interpreter, the
// reference semantics, and on in's baseline image for the cycle base.
func (in *appInput) reference() error {
	for _, r := range in.script {
		ip := &hgraph.Interp{App: in.app, MaxDepth: 10_000}
		res, err := ip.Run(r.Entry, r.Args[:])
		if err != nil {
			return fmt.Errorf("interpreter on %s m%d: %w", in.name, r.Entry, err)
		}
		in.ref = append(in.ref, res)
	}
	var err error
	if in.baseCycles, err = runScript(in, in.baseline); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	return nil
}

// runScript runs in's script sample on img and checks each result
// against the interpreter's, returning the emulated cycles.
func runScript(in *appInput, img *oat.Image) (int64, error) {
	m := emu.New(img)
	var cycles int64
	for i, r := range in.script {
		got, err := m.Run(r.Entry, r.Args[:])
		if err != nil {
			return 0, fmt.Errorf("emulator on m%d: %w", r.Entry, err)
		}
		want := in.ref[i]
		if got.Ret != want.Ret || got.Exc != want.Exc || !reflect.DeepEqual(got.Log, want.Log) {
			return 0, fmt.Errorf("emulated m%d%v diverges from the interpreter: ret %d exc %v, want ret %d exc %v",
				r.Entry, r.Args, got.Ret, got.Exc, want.Ret, want.Exc)
		}
		cycles += got.Cycles
	}
	return cycles, nil
}

// checked is what checking one output found.
type checked struct {
	text, cycles float64
	findings     int
	err          error
}

// gate checks every distinct output once, outside the timed loop: the
// serialized image round-trips through oat.Unmarshal and Validate, lints
// clean, computes what the hgraph interpreter computes on the script
// sample, and (when the workload supplies one) equals a direct build.
// It also yields the deterministic size and cycle ratios against each
// input's baseline build. Inputs, then outputs, are checked in parallel.
func gate(ctx context.Context, outs []*output, workers int) gateResult {
	var g gateResult
	var inputs []*appInput
	seen := map[*appInput]bool{}
	for _, o := range outs {
		if !seen[o.in] {
			seen[o.in] = true
			inputs = append(inputs, o.in)
		}
	}
	refErrs, _ := par.MapCtx(ctx, workers, len(inputs), func(i int) (error, error) {
		return inputs[i].reference(), nil
	})
	bad := map[*appInput]error{}
	for i, err := range refErrs {
		if err != nil {
			bad[inputs[i]] = err
		}
	}
	results, _ := par.MapCtx(ctx, workers, len(outs), func(i int) (checked, error) {
		if err := bad[outs[i].in]; err != nil {
			return checked{err: err}, nil
		}
		return checkOutput(ctx, outs[i]), nil
	})
	var texts, cycles []float64
	for i, c := range results {
		g.findings += c.findings
		if c.err != nil {
			g.problems = append(g.problems, fmt.Sprintf("%s: %v", outs[i].key, c.err))
			g.failedOps += outs[i].ops
			continue
		}
		texts = append(texts, c.text)
		cycles = append(cycles, c.cycles)
	}
	var err error
	if g.textRatio, err = geomean(texts); err != nil {
		g.problems = append(g.problems, "text_ratio: "+err.Error())
	}
	if g.cyclesRatio, err = geomean(cycles); err != nil {
		g.problems = append(g.problems, "cycles_ratio: "+err.Error())
	}
	return g
}

// checkOutput checks one output; it runs on one of the gate's workers,
// so its lint is single-threaded.
func checkOutput(ctx context.Context, o *output) checked {
	if o.want != nil && !bytes.Equal(o.image, o.want) {
		return checked{err: fmt.Errorf("image differs from a direct core.BuildCtx of the same input")}
	}
	img, err := oat.Unmarshal(o.image)
	if err != nil {
		return checked{err: fmt.Errorf("unmarshal: %w", err)}
	}
	if err := img.Validate(); err != nil {
		return checked{err: fmt.Errorf("validate: %w", err)}
	}
	again, err := img.Marshal()
	if err != nil || !bytes.Equal(again, o.image) {
		return checked{err: fmt.Errorf("image does not survive an unmarshal/marshal round trip")}
	}
	fs, err := analysis.LintCtx(ctx, img, 1, nil)
	if err != nil {
		return checked{err: fmt.Errorf("lint: %w", err)}
	}
	if len(fs) > 0 {
		return checked{findings: len(fs), err: fmt.Errorf("%d lint findings, first: %s", len(fs), fs[0])}
	}
	cyc, err := runScript(o.in, img)
	if err != nil {
		return checked{err: err}
	}
	return checked{
		text:   float64(img.TextBytes()) / float64(o.in.baseline.TextBytes()),
		cycles: float64(cyc) / float64(o.in.baseCycles),
	}
}
