package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/reoutline"
)

// reoutlineBench is the post-hoc path: images built under cto and sealed
// during set-up are unmarshalled, re-outlined and marshalled again. No
// compile happens; analysis (admission lint and call graph, paired
// re-verification) and the outline detector over lifted code do the work.
// The images are the six paper apps' plus Obfuscated's.
type reoutlineBench struct {
	apps   []*appInput
	sealed [][]byte
}

func (r *reoutlineBench) setup(ctx context.Context, e *env) error {
	cto := core.CTOOnly()
	cto.Workers = e.workers
	for _, p := range seededProfiles(e.seed, true) {
		in, err := newAppInput(p.Name, p, e.seed)
		if err != nil {
			return err
		}
		if err := buildBaseline(ctx, in, e.workers); err != nil {
			return err
		}
		res, err := core.BuildCtx(ctx, in.app, cto)
		if err != nil {
			return fmt.Errorf("cto build of %s: %w", in.name, err)
		}
		data, err := res.Image.Marshal()
		if err != nil {
			return err
		}
		r.apps = append(r.apps, in)
		r.sealed = append(r.sealed, data)
	}
	return nil
}

func (r *reoutlineBench) close() {}

// appClocks is one operation's wall time and the re-outliner's own stage
// clocks, for the per-input rows.
type appClocks struct{ op, lift, detect, relink, verify float64 }

// reoutlineRoundTime is how many seconds of --seconds buy one round (a
// round takes about 11 s on a 2-CPU host).
const reoutlineRoundTime = 7500 * time.Millisecond

// reoutlineTrees are the detector layouts each image is re-outlined
// under: one global suffix tree (the re-outliner's default) and 8
// parallel trees, the post-hoc counterpart of build-cold's ltbo/plopti
// pair. Fourteen inputs also put the median between two inputs rather
// than on one app's time.
var reoutlineTrees = []int{1, 8}

func (r *reoutlineBench) measure(ctx context.Context, e *env) (*measurement, error) {
	m := &measurement{}
	if e.trace {
		m.led = newLedger()
	}
	keys := len(r.apps) * len(reoutlineTrees)
	outs := make([]*output, keys)
	perInput := make([][]appClocks, keys)
	for n := 0; n < e.rounds(reoutlineRoundTime)*keys; n++ {
		i := n % keys
		a, in := i/len(reoutlineTrees), r.apps[i/len(reoutlineTrees)]
		trees := reoutlineTrees[i%len(reoutlineTrees)]
		cfg := reoutline.Config{ParallelTrees: trees, Workers: e.workers}
		key := fmt.Sprintf("%s/trees=%d", in.name, trees)
		a0, t0 := heapAllocBytes(), time.Now()
		data, st, err := r.once(ctx, a, cfg)
		d := time.Since(t0)
		m.loop += d
		m.allocBytes += heapAllocBytes() - a0
		m.opMS = append(m.opMS, ms(d))
		m.attempted++
		m.methods += in.app.NumMethods()
		if err != nil {
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("%s: %v", key, err))
			continue
		}
		perInput[i] = append(perInput[i], clocksOf(ms(d), st))
		m.recordOutput(outs, i, key, in, data)
		if !e.trace {
			continue
		}
		tdata, tst, err := r.traced(ctx, m.led, a, key, cfg, e.workers)
		switch {
		case err != nil:
			m.problems = append(m.problems, fmt.Sprintf("traced %s: %v", key, err))
		case !bytes.Equal(tdata, data):
			m.problems = append(m.problems, fmt.Sprintf("traced %s: image differs from the untraced operation's", key))
		default:
			perInput[i] = append(perInput[i], tst)
		}
	}
	for i, o := range outs {
		if o != nil {
			m.outs = append(m.outs, o)
		}
		in, trees := r.apps[i/len(reoutlineTrees)], reoutlineTrees[i%len(reoutlineTrees)]
		m.rows = append(m.rows, appRow(fmt.Sprintf("%s/trees=%d", in.name, trees), perInput[i]))
	}
	return m, nil
}

// once is one untraced operation: unmarshal, re-outline, marshal.
func (r *reoutlineBench) once(ctx context.Context, i int, cfg reoutline.Config) ([]byte, *reoutline.Stats, error) {
	img, err := oat.Unmarshal(r.sealed[i])
	if err != nil {
		return nil, nil, err
	}
	out, st, err := reoutline.RunCtx(ctx, img, cfg)
	if err != nil {
		return nil, nil, err
	}
	data, err := out.Marshal()
	return data, st, err
}

// traced is once with a span around each public call. The re-outliner's
// internal stages cannot be called one at a time from outside, so its
// own stage clocks split the RunCtx span, and admission is the rest of
// it. Lint and the call graph run inside admission and re-verification;
// they are measured by calling them again on the input after the
// operation.
func (r *reoutlineBench) traced(ctx context.Context, l *ledger, a int, key string, cfg reoutline.Config, workers int) ([]byte, appClocks, error) {
	op := l.beginOp(key)
	start := time.Now()
	var img *oat.Image
	if err := l.call(op, "oat.unmarshal_ms", "", func() (err error) {
		img, err = oat.Unmarshal(r.sealed[a])
		return err
	}); err != nil {
		return nil, appClocks{}, err
	}
	var out *oat.Image
	var st *reoutline.Stats
	t0 := time.Now()
	err := l.wrap(op, "reoutline.RunCtx", func() (err error) {
		out, st, err = reoutline.RunCtx(ctx, img, cfg)
		return err
	})
	if err != nil {
		return nil, appClocks{}, err
	}
	run := time.Since(t0)
	stages := st.LiftTime + st.DetectTime + st.RelinkTime + st.VerifyTime
	l.bookSelf("reoutline.admit_ms", run-stages)
	l.bookSelf("reoutline.lift_ms", st.LiftTime)
	l.bookSelf("reoutline.detect_ms", st.DetectTime)
	l.bookSelf("reoutline.relink_ms", st.RelinkTime)
	l.bookSelf("reoutline.verify_ms", st.VerifyTime)
	var data []byte
	if err := l.call(op, "oat.marshal_ms", "", func() (err error) {
		data, err = out.Marshal()
		return err
	}); err != nil {
		return nil, appClocks{}, err
	}
	d := time.Since(start)
	l.endOp(op, d)

	if o := st.Outline; o != nil {
		bookOutlineStats(l, o)
		l.add("outline.run_ms", ms(o.SepScan+o.Symbolize+o.TreeBuild+o.Detect+o.Rewrite))
	}
	l.add("reoutline.methods_lifted", float64(st.MethodsLifted))
	l.add("reoutline.methods_frozen", float64(st.MethodsFrozen))
	if err := l.nested(op, "analysis.lint_ms", "analysis.alloc_mb", func() error {
		_, err := analysis.LintCtx(ctx, img, workers, nil)
		return err
	}); err != nil {
		return nil, appClocks{}, err
	}
	l.nested(op, "analysis.callgraph_ms", "analysis.alloc_mb", func() error {
		analysis.BuildCallGraphCtx(ctx, img, workers)
		return nil
	})
	return data, clocksOf(ms(d), st), nil
}

func clocksOf(op float64, st *reoutline.Stats) appClocks {
	return appClocks{op, ms(st.LiftTime), ms(st.DetectTime), ms(st.RelinkTime), ms(st.VerifyTime)}
}

// appRow is one input's medians over every operation of the run, with
// the relink range, so a single-run outlier either reproduces or does not.
func appRow(name string, cs []appClocks) string {
	pick := func(f func(appClocks) float64) []float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return xs
	}
	relink := pick(func(c appClocks) float64 { return c.relink })
	sort.Float64s(relink)
	lo, hi := 0.0, 0.0
	if len(relink) > 0 {
		lo, hi = relink[0], relink[len(relink)-1]
	}
	return fmt.Sprintf("input %-19s n=%d op_ms=%.3f lift_ms=%.3f detect_ms=%.3f relink_ms=%.3f (min %.3f max %.3f) verify_ms=%.3f",
		name, len(cs),
		median(pick(func(c appClocks) float64 { return c.op })),
		median(pick(func(c appClocks) float64 { return c.lift })),
		median(pick(func(c appClocks) float64 { return c.detect })),
		median(relink), lo, hi,
		median(pick(func(c appClocks) float64 { return c.verify })))
}
