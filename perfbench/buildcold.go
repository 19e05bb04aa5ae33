package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/outline"
	"repro/internal/par"
)

// buildCold is the library build path a CLI user runs (Tables 4 and 6):
// every seeded app built from scratch under ltbo (one global suffix
// tree) and plopti (8 trees), with image verification on and a fresh
// empty method cache per build, so the cache only writes.
type buildCold struct {
	apps []*appInput
	cfgs []namedConfig
}

type namedConfig struct {
	name string
	cfg  core.Config
}

func (b *buildCold) setup(ctx context.Context, e *env) error {
	b.cfgs = []namedConfig{{"ltbo", core.CTOLTBO()}, {"plopti", core.CTOLTBOPl(8)}}
	for i := range b.cfgs {
		b.cfgs[i].cfg.VerifyImage = true
		b.cfgs[i].cfg.Workers = e.workers
	}
	for _, p := range seededProfiles(e.seed, false) {
		in, err := newAppInput(p.Name, p, e.seed)
		if err != nil {
			return err
		}
		if err := buildBaseline(ctx, in, e.workers); err != nil {
			return err
		}
		b.apps = append(b.apps, in)
	}
	return nil
}

func (b *buildCold) close() {}

// round is one operation per (app, configuration) pair.
func (b *buildCold) round() int { return len(b.apps) * len(b.cfgs) }

func (b *buildCold) input(i int) (*appInput, namedConfig) {
	return b.apps[i/len(b.cfgs)], b.cfgs[i%len(b.cfgs)]
}

// build is one untraced operation: core.BuildCtx with a fresh cache, then
// the image serialized as the CLI writes it.
func (b *buildCold) build(ctx context.Context, in *appInput, nc namedConfig) ([]byte, error) {
	cfg := nc.cfg
	cfg.Cache = cache.New()
	res, err := core.BuildCtx(ctx, in.app, cfg)
	if err != nil {
		return nil, err
	}
	return res.Image.Marshal()
}

// buildRoundTime is how many seconds of --seconds buy one round (a round
// takes about 7 s on a 2-CPU host; three rounds at --seconds 15 keep the
// median's spread near 5%).
const buildRoundTime = 5 * time.Second

func (b *buildCold) measure(ctx context.Context, e *env) (*measurement, error) {
	m := &measurement{}
	if e.trace {
		m.led = newLedger()
	}
	outs := make([]*output, b.round())
	perInput := make([][]float64, b.round())
	for n := 0; n < e.rounds(buildRoundTime)*b.round(); n++ {
		i := n % b.round()
		in, nc := b.input(i)
		key := in.name + "/" + nc.name
		a0, t0 := heapAllocBytes(), time.Now()
		img, err := b.build(ctx, in, nc)
		d := time.Since(t0)
		m.loop += d
		m.allocBytes += heapAllocBytes() - a0
		m.opMS = append(m.opMS, ms(d))
		perInput[i] = append(perInput[i], ms(d))
		m.attempted++
		m.methods += in.app.NumMethods()
		if err != nil {
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("%s: %v", key, err))
			continue
		}
		m.recordOutput(outs, i, key, in, img)
		if !e.trace {
			continue
		}
		// The same build decomposed into one public call per layer,
		// right after the untraced one so both see the same heap
		// state. It must reproduce the untraced image byte for byte.
		timg, err := b.tracedBuild(ctx, m.led, in, nc, e.workers)
		switch {
		case err != nil:
			m.problems = append(m.problems, fmt.Sprintf("traced %s: %v", key, err))
		case !bytes.Equal(timg, img):
			m.problems = append(m.problems, fmt.Sprintf("traced %s: image differs from core.BuildCtx's", key))
		}
	}
	for i, o := range outs {
		if o != nil {
			m.outs = append(m.outs, o)
		}
		in, nc := b.input(i)
		m.rows = append(m.rows, fmt.Sprintf("input %-16s op_ms median %.3f of %s",
			in.name+"/"+nc.name, median(perInput[i]), joinFloats(perInput[i], "%.1f")))
	}
	if e.trace {
		m.led.set("cache.hit_rate", m.led.info["cache.hits"]/m.led.info["cache.lookups"])
	}
	return m, nil
}

// recordOutput keeps the first image each input produced and flags any
// later operation on the same input that produced different bytes.
func (m *measurement) recordOutput(outs []*output, i int, key string, in *appInput, img []byte) {
	switch o := outs[i]; {
	case o == nil:
		outs[i] = &output{key: key, in: in, image: img, ops: 1}
	case bytes.Equal(o.image, img):
		o.ops++
	default:
		m.failed++
		m.problems = append(m.problems, key+": two builds of the same input differ")
	}
}

// tracedBuild is core.BuildCtx taken apart into its public calls —
// CompileCtx, Snap, RunCtx, VerifyRewriteCtx, Link, LintCtx — plus the
// Marshal the untraced operation does, with a span around each. After
// the operation it calls hgraph, the call-graph builder and the cache
// lookup path separately to measure them on the same input.
func (b *buildCold) tracedBuild(ctx context.Context, l *ledger, in *appInput, nc namedConfig, workers int) ([]byte, error) {
	cfg := nc.cfg
	c := cache.New()
	copts := codegen.Options{CTO: cfg.CTO, Optimize: cfg.OptimizeIR, Workers: cfg.Workers, Cache: c}
	op := l.beginOp(in.name + "/" + nc.name)
	start := time.Now()

	var methods []*codegen.CompiledMethod
	err := l.call(op, "codegen.compile_ms", "codegen.alloc_mb", func() (err error) {
		methods, err = codegen.CompileCtx(ctx, in.app, copts)
		return err
	})
	if err != nil {
		return nil, err
	}
	var blobs []oat.Blob
	if cfg.LTBO {
		var snap *outline.Snapshot
		l.call(op, "outline.verify_ms", "outline.alloc_mb", func() error {
			snap = outline.Snap(methods)
			return nil
		})
		opts := outline.Options{
			MinLength: cfg.MinLength, MinBenefit: cfg.MinBenefit,
			Parallel: cfg.ParallelTrees, DetectShards: cfg.DetectShards,
			Rounds: cfg.Rounds, DedupFunctions: cfg.DedupFunctions,
			Detector: cfg.Detector, Workers: cfg.Workers,
		}
		var st *outline.Stats
		err := l.call(op, "outline.run_ms", "outline.alloc_mb", func() (err error) {
			blobs, st, err = outline.RunCtx(ctx, methods, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := l.call(op, "outline.verify_ms", "outline.alloc_mb", func() error {
			return outline.VerifyRewriteCtx(ctx, methods, snap, blobs, opts.Workers, nil)
		}); err != nil {
			return nil, err
		}
		bookOutlineStats(l, st)
	}
	var img *oat.Image
	if err := l.call(op, "oat.link_ms", "", func() (err error) {
		img, err = oat.Link(methods, blobs)
		return err
	}); err != nil {
		return nil, err
	}
	if err := l.call(op, "analysis.lint_ms", "analysis.alloc_mb", func() error {
		fs, err := analysis.LintCtx(ctx, img, cfg.Workers, nil)
		if err == nil && len(fs) > 0 {
			err = fmt.Errorf("image verification failed: %d findings, first: %s", len(fs), fs[0])
		}
		return err
	}); err != nil {
		return nil, err
	}
	var data []byte
	if err := l.call(op, "oat.marshal_ms", "", func() (err error) {
		data, err = img.Marshal()
		return err
	}); err != nil {
		return nil, err
	}
	l.endOp(op, time.Since(start))

	// Separately called measurements on the same input.
	st := c.Stats()
	l.add("cache.hits", float64(st.Hits))
	l.add("cache.lookups", float64(st.Hits+st.Misses))
	l.add("cache.puts", float64(st.Entries))
	l.add("cache.mem_mb", float64(st.MemBytes)/(1<<20))
	if err := l.nested(op, "hgraph.optimize_ms", "", func() error {
		return optimizeAll(ctx, in.app.Methods, workers)
	}); err != nil {
		return nil, err
	}
	l.nested(op, "analysis.callgraph_ms", "analysis.alloc_mb", func() error {
		analysis.BuildCallGraphCtx(ctx, img, workers)
		return nil
	})
	lookupUS, err := lookupAll(c, in.app.Methods, copts)
	if err != nil {
		return nil, err
	}
	l.add("cache.lookup_us_per_method", lookupUS)
	return data, nil
}

// bookOutlineStats books the outliner's own phase clocks and counts.
func bookOutlineStats(l *ledger, st *outline.Stats) {
	l.add("outline.sep_scan_ms", ms(st.SepScan))
	l.add("outline.symbolize_ms", ms(st.Symbolize))
	l.add("outline.tree_build_ms", ms(st.TreeBuild))
	l.add("outline.detect_ms", ms(st.Detect))
	l.add("outline.rewrite_ms", ms(st.Rewrite))
	l.add("outline.sequence_symbols", float64(st.SequenceSymbols))
	l.add("outline.functions", float64(st.OutlinedFunctions))
	l.add("outline.occurrences", float64(st.OutlinedOccurrences))
	l.add("outline.words_saved", float64(st.NetWordsSaved()))
}

// optimizeAll runs hgraph.Build and Optimize over every non-native
// method at the build's pool width: the IR share of a compile.
func optimizeAll(ctx context.Context, methods []*dex.Method, workers int) error {
	return par.EachCtx(ctx, workers, len(methods), func(i int) error {
		if methods[i].Native {
			return nil
		}
		g, err := hgraph.Build(methods[i])
		if err != nil {
			return err
		}
		hgraph.Optimize(g)
		return nil
	})
}

// lookupAll times the cache's read path — CacheKey, Get and
// DecodeCachedMethod — for every method, in microseconds per method.
func lookupAll(c *cache.Cache, methods []*dex.Method, opts codegen.Options) (float64, error) {
	t0 := time.Now()
	for _, m := range methods {
		p, ok := c.Get(codegen.CacheKey(m, methods, opts))
		if !ok {
			continue
		}
		if _, err := codegen.DecodeCachedMethod(m, p); err != nil {
			return 0, fmt.Errorf("decoding cached %s: %w", m.FullName(), err)
		}
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(methods)), nil
}
