// Command calibro builds a synthetic Android application under a selected
// optimization configuration and reports code size, build time, outlining
// statistics, and (optionally) runtime cycle counts and memory usage
// measured on the emulated device.
//
// Usage:
//
//	calibro -app Wechat [-scale 0.25] [-config baseline|cto|ltbo|plopti|hfopti]
//	        [-trees 8] [-shards 1] [-j N] [-runs 20] [-measure] [-o out.oat]
//	        [-trace t.json] [-metrics m.json] [-stats] [-pprof cpu.out|mem.out]
//	        [-cache] [-cache-dir DIR] [-remote-cache URL]
//	calibro -debloat app.oat [-roots 0,1,2] [-reoutline] [-o smaller.oat]
//	calibro -app Wechat -config cto -reoutline [-o out.oat]
//
// Telemetry: -trace writes a Chrome trace-event JSON of the whole build
// (open in Perfetto or chrome://tracing; worker lanes appear as threads),
// -metrics writes the flat metrics snapshot (per-stage totals, per-method
// p50/p95/max, pool queue wait, outline counters), -stats prints a
// one-screen telemetry table, and -pprof collects a runtime/pprof profile
// of the process (a file name starting with "mem" selects a heap
// snapshot, anything else a CPU profile).
//
// Caching: -cache routes the compile stage through an in-memory
// content-addressed compilation cache (the hfopti rebuild then compiles
// warm); -cache-dir persists the cache to a directory so the next calibro
// invocation with unchanged inputs skips per-method code generation
// entirely; -remote-cache additionally consults a shared calibrocached
// store, so one machine's compile warms every machine's. The linked image
// is byte-identical with the cache cold, warm, remote, or absent.
//
// Debloating: -debloat takes an already linked OAT image instead of
// building one, removes every method body, outlined function, and thunk
// provably unreachable from the -roots method set (default: every method
// with no recovered caller), re-verifies the result with the full oatlint
// pass, and writes the smaller image with -o. The pass refuses unsound
// inputs and removes nothing when the analysis is imprecise.
//
// Re-outlining: -reoutline additionally runs the post-hoc re-outliner on
// whatever image the invocation produced — the freshly built one, or the
// debloated one when composed with -debloat. The pass lifts every method
// the legality mask admits back into rewritable form, re-runs the
// link-time detector over it, relinks, and re-verifies against the input
// with the paired lint rules; methods it cannot prove liftable ride
// through byte-for-byte.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/emu"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// errUsage marks a flag-parse failure the flag package already reported;
// main exits 2 without printing it again.
var errUsage = errors.New("usage error")

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibro: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the testable entry point: the whole build-and-report flow with
// its output on out and every failure returned rather than fatal'd.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("calibro", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		appName = fs.String("app", "Wechat", "app profile name (Toutiao, Taobao, Fanqie, Meituan, Kuaishou, Wechat)")
		inPath  = fs.String("i", "", "build this dex container file instead of generating an app")
		scale   = fs.Float64("scale", 0.25, "app scale factor (1.0 = full reproduction scale)")
		config  = fs.String("config", "plopti", "baseline | cto | ltbo | plopti | hfopti")
		trees   = fs.Int("trees", 8, "parallel suffix trees for plopti/hfopti")
		shards  = fs.Int("shards", 1, "detection shards per tree; 1 = exact global structure, N>=2 parallelizes detection (Table 6 tradeoff)")
		workers = fs.Int("j", 0, "build worker goroutines; 0 = all CPUs (output is identical for every value)")
		rounds  = fs.Int("rounds", 1, "outlining rounds")
		dedup   = fs.Bool("dedup", false, "merge identical outlined functions across trees")
		runs    = fs.Int("runs", 20, "scripted runs for profiling/measurement")
		measure = fs.Bool("measure", false, "run the script on the emulator and report cycles/memory")
		outPath = fs.String("o", "", "write the linked OAT image to this file")

		tracePath   = fs.String("trace", "", "write a Chrome trace-event JSON of the build to this file (Perfetto-loadable)")
		metricsPath = fs.String("metrics", "", "write the flat metrics snapshot JSON to this file")
		statsFlag   = fs.Bool("stats", false, "print the build telemetry table")
		pprofPath   = fs.String("pprof", "", "collect a runtime/pprof profile (mem* = heap at exit, otherwise CPU)")

		cacheFlag   = fs.Bool("cache", false, "compile through an in-memory compilation cache (hfopti's rebuild compiles warm)")
		cacheDir    = fs.String("cache-dir", "", "persist the compilation cache in this directory for cross-process warm rebuilds (implies -cache)")
		remoteCache = fs.String("remote-cache", "", "calibrocached base URL to share compilations with a fleet (implies -cache); failures degrade to misses")

		debloatPath = fs.String("debloat", "", "debloat this existing OAT image instead of building: remove code unreachable from -roots and write the result to -o")
		rootsSpec   = fs.String("roots", "", "comma-separated method IDs rooting the debloat reachability (default: no-caller inference)")
		reoutline   = fs.Bool("reoutline", false, "additionally re-outline the produced image post hoc (after the build, or after -debloat)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	var cc *cache.Cache
	if *cacheDir != "" {
		var err error
		if cc, err = cache.NewDir(*cacheDir); err != nil {
			return err
		}
	} else if *cacheFlag || *remoteCache != "" {
		cc = cache.New()
	}
	if cc != nil && *remoteCache != "" {
		cc.SetRemote(cache.NewRemote(cache.RemoteConfig{URL: *remoteCache}))
	}

	var stopProfile func() error
	if *pprofPath != "" {
		stop, err := obs.StartProfile(*pprofPath)
		if err != nil {
			return err
		}
		stopProfile = stop
	}

	var tracer *obs.Tracer
	if *tracePath != "" || *metricsPath != "" || *statsFlag {
		tracer = obs.New()
	}

	if *debloatPath != "" {
		if err := runDebloat(out, *debloatPath, *rootsSpec, *outPath, *reoutline, *workers, tracer); err != nil {
			return err
		}
		return flushTelemetry(out, tracer, *tracePath, *metricsPath, *statsFlag, stopProfile, *pprofPath)
	}

	var app *dex.App
	var man *workload.Manifest
	if *inPath != "" {
		data, err := os.ReadFile(*inPath)
		if err != nil {
			return err
		}
		if len(data) >= 4 && string(data[:4]) == "dex\n" {
			app, err = dex.UnmarshalApp(data)
		} else {
			app, err = dex.ParseText(string(data))
		}
		if err != nil {
			return err
		}
		// Convention: the leading methods are the activities; smaller
		// hand-written apps may have fewer than three.
		n := 3
		if app.NumMethods() < n {
			n = app.NumMethods()
		}
		man = &workload.Manifest{}
		for i := 0; i < n; i++ {
			man.Drivers = append(man.Drivers, dex.MethodID(i))
		}
	} else {
		prof, ok := workload.AppByName(*appName, *scale)
		if !ok {
			return fmt.Errorf("unknown app %q", *appName)
		}
		var err error
		app, man, err = workload.Generate(prof)
		if err != nil {
			return err
		}
	}
	stats := app.CollectStats()
	fmt.Fprintf(out, "app %s: %d methods (%d native), %d dex instructions\n",
		app.Name, stats.Methods, stats.Native, stats.Insns)

	script := workload.Script(man, *runs, 1)
	tune := func(c core.Config) core.Config {
		c.Rounds = *rounds
		c.DetectShards = *shards
		c.DedupFunctions = *dedup
		c.Workers = *workers
		c.Tracer = tracer
		c.Cache = cc
		return c
	}
	ctx := context.Background()
	var res *core.Result
	var err error
	switch *config {
	case "baseline":
		res, err = core.BuildCtx(ctx, app, tune(core.Baseline()))
	case "cto":
		res, err = core.BuildCtx(ctx, app, tune(core.CTOOnly()))
	case "ltbo":
		res, err = core.BuildCtx(ctx, app, tune(core.CTOLTBO()))
	case "plopti":
		res, err = core.BuildCtx(ctx, app, tune(core.CTOLTBOPl(*trees)))
	case "hfopti":
		res, _, err = core.ProfileGuidedBuildCtx(ctx, app, tune(core.CTOLTBOPl(*trees)), script)
	default:
		return fmt.Errorf("unknown config %q", *config)
	}
	if err != nil {
		return err
	}
	if *reoutline {
		img, err := applyReoutline(out, res.Image, *workers, tracer)
		if err != nil {
			return err
		}
		res.Image = img
	}

	fmt.Fprintf(out, "config %s: text %s, build %s at -j %d (compile %s, outline %s, link %s; stage sum %s)\n",
		*config, report.Bytes(res.TextBytes()), usDur(res.WallTime.Microseconds()), res.Workers,
		usDur(res.CompileTime.Microseconds()), usDur(res.OutlineTime.Microseconds()),
		usDur(res.LinkTime.Microseconds()), usDur(res.StageTime().Microseconds()))
	if s := res.Outline; s != nil {
		fmt.Fprintf(out, "outlining: %d candidates, %d functions, %d occurrences, net %d words saved\n",
			s.CandidateMethods, s.OutlinedFunctions, s.OutlinedOccurrences, s.NetWordsSaved())
	}
	if cc != nil {
		s := cc.Stats()
		fmt.Fprintf(out, "cache: %d hits (%d from disk), %d misses, %d entries, %s stored",
			s.Hits, s.DiskHits, s.Misses, s.Entries, report.Bytes(int(s.BytesStored)))
		if s.Corrupt > 0 {
			fmt.Fprintf(out, "; %d corrupt entries recompiled", s.Corrupt)
		}
		fmt.Fprintln(out)
	}

	if *measure {
		m := emu.New(res.Image)
		var cycles, insts int64
		pages := 0
		for _, r := range script {
			ro, err := m.Run(r.Entry, r.Args[:])
			if err != nil {
				return fmt.Errorf("run m%d: %v", r.Entry, err)
			}
			cycles += ro.Cycles
			insts += ro.Insts
			if ro.CodePages+ro.DataPages > pages {
				pages = ro.CodePages + ro.DataPages
			}
		}
		fmt.Fprintf(out, "measured: %s cycles, %s instructions over %d runs; peak resident %s\n",
			report.Count(cycles), report.Count(insts), len(script),
			report.Bytes(pages*4096))
	}

	if *outPath != "" {
		data, err := res.Image.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%s on disk)\n", *outPath, report.Bytes(len(data)))
	}

	return flushTelemetry(out, tracer, *tracePath, *metricsPath, *statsFlag, stopProfile, *pprofPath)
}

// flushTelemetry writes the telemetry outputs shared by the build and
// debloat paths: the -stats table, the -trace and -metrics files, and
// the -pprof profile.
func flushTelemetry(out io.Writer, tracer *obs.Tracer, tracePath, metricsPath string, statsFlag bool, stopProfile func() error, pprofPath string) error {
	if statsFlag {
		printTelemetry(out, tracer.Snapshot())
	}
	if tracePath != "" {
		if err := writeFileWith(tracePath, tracer.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote trace %s\n", tracePath)
	}
	if metricsPath != "" {
		if err := writeFileWith(metricsPath, tracer.WriteMetrics); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics %s\n", metricsPath)
	}
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote profile %s\n", pprofPath)
	}
	return nil
}

// runDebloat implements -debloat: parse an existing OAT image, remove
// everything unreachable from the root set, report what was removed,
// optionally re-outline the survivor, and (with -o) write the smaller
// image.
func runDebloat(out io.Writer, inPath, rootsSpec, outPath string, reoutline bool, workers int, tracer *obs.Tracer) error {
	data, err := os.ReadFile(inPath)
	if err != nil {
		return err
	}
	img, err := oat.Unmarshal(data)
	if err != nil {
		return err
	}
	cfg := core.DebloatConfig{Workers: workers, Tracer: tracer}
	if strings.TrimSpace(rootsSpec) == "" {
		cfg.NoCallerRoots = true
	} else {
		for _, part := range strings.Split(rootsSpec, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			id, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				return fmt.Errorf("bad -roots entry %q: %v", part, err)
			}
			cfg.Roots = append(cfg.Roots, dex.MethodID(id))
		}
	}
	sp := tracer.Start("stage", "debloat").Arg("methods", int64(len(img.Methods)))
	res, stats, err := core.DebloatImageCtx(context.Background(), img, cfg)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "debloat: text %s -> %s (%d bytes removed)\n",
		report.Bytes(stats.TextBefore), report.Bytes(stats.TextAfter),
		stats.TextBefore-stats.TextAfter)
	fmt.Fprintf(out, "removed: %d/%d methods, %d/%d outlined functions, %d/%d thunks\n",
		stats.MethodsRemoved, stats.MethodsTotal,
		stats.BlobsRemoved, stats.BlobsTotal,
		stats.ThunksRemoved, stats.ThunksTotal)
	if stats.Imprecise {
		fmt.Fprintln(out, "debloat: analysis was imprecise; everything kept")
	}
	if reoutline {
		if res, err = applyReoutline(out, res, workers, tracer); err != nil {
			return err
		}
	}
	if outPath != "" {
		data, err := res.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%s on disk)\n", outPath, report.Bytes(len(data)))
	}
	return nil
}

// applyReoutline runs the post-hoc re-outliner on an image and reports
// what it did, returning the rewritten image.
func applyReoutline(out io.Writer, img *oat.Image, workers int, tracer *obs.Tracer) (*oat.Image, error) {
	res, st, err := core.ReoutlineImageCtx(context.Background(), img, core.ReoutlineConfig{Workers: workers, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "reoutline: text %s -> %s (%d bytes saved)\n",
		report.Bytes(st.TextBefore), report.Bytes(st.TextAfter), st.Saved())
	fmt.Fprintf(out, "reoutline: %d/%d methods lifted (%d frozen, %d stubs), %d functions created, %d retained, %d merged\n",
		st.MethodsLifted, st.MethodsTotal, st.MethodsFrozen, st.MethodsStub,
		st.BlobsCreated, st.BlobsRetained, st.BlobsDeduped)
	return res, nil
}

// writeFileWith streams an exporter into a freshly created file.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usDur renders a microsecond count for the build summary and the
// telemetry table. Below a second the report.Dur m/s style collapses
// everything to "0.0s", so small values switch to milliseconds.
func usDur(us int64) string {
	d := time.Duration(us) * time.Microsecond
	if d < time.Second && d > -time.Second {
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	}
	return report.Dur(d)
}

// printTelemetry renders the one-screen build telemetry table: stage wall
// clocks, per-category task distributions with their queue waits, worker
// occupancy, and the recorded counters. Queue waits of concurrent tasks
// overlap, so their sum is no wall clock and the queue-wait row leaves the
// total column empty.
func printTelemetry(out io.Writer, snap *obs.Snapshot) {
	t := &report.Table{
		Title:  "\nbuild telemetry",
		Header: []string{"span", "count", "total", "p50", "p95", "max"},
	}
	stages := make([]string, 0, len(snap.Stages))
	for name := range snap.Stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	for _, name := range stages {
		t.AddRow("stage "+name, "1", usDur(snap.Stages[name]), "", "", "")
	}
	cats := make([]string, 0, len(snap.Tasks))
	for cat := range snap.Tasks {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		ts := snap.Tasks[cat]
		t.AddRow(cat, fmt.Sprint(ts.Count), usDur(ts.TotalUS), usDur(ts.P50US), usDur(ts.P95US), usDur(ts.MaxUS))
		if qs, ok := snap.QueueWait[cat]; ok {
			t.AddRow("  queue wait", "", "", usDur(qs.P50US), usDur(qs.P95US), usDur(qs.MaxUS))
		}
	}
	fmt.Fprintln(out, t)

	if len(snap.Workers) > 0 {
		w := &report.Table{
			Title:  "worker occupancy",
			Header: []string{"lane", "tasks", "busy", "of wall"},
		}
		for _, lo := range snap.Workers {
			w.AddRow(fmt.Sprintf("worker %d", lo.Lane), fmt.Sprint(lo.Tasks),
				usDur(lo.BusyUS), report.Pct(lo.Busy))
		}
		fmt.Fprintln(out, w)
	}

	if len(snap.Counters) > 0 {
		c := &report.Table{
			Title:  "counters",
			Header: []string{"counter", "value"},
		}
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c.AddRow(name, report.Count(snap.Counters[name]))
		}
		fmt.Fprintln(out, c)
	}
}
