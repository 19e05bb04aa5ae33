// Command perfbench is the repository benchmark. It drives the Calibro
// pipeline only through its public functions, on inputs generated from
// a seed, and prints every metric by name and unit; the last line of its
// output is one JSON result object. See README.md for why each workload
// exists and which layer metric should move which end-to-end metric.
//
//	perfbench --workload build-cold|serve-update|reoutline --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// alternates untraced operations with traced ones — the same operation
// on the same input, calling the layers one public function at a time
// with spans around each call — and reports the per-layer ledger
// reconciled against the untraced operations of the same run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 on every workload.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"methods_per_s", "methods/s"},
	{"text_ratio", "ratio"},
	{"cycles_ratio", "ratio"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced-run metrics, reported with --trace 1 on every
// workload. Times are means per operation; a layer that is not on a
// workload's path reads 0 there (README.md says which).
var perLayer = []metricDef{
	{"codegen.compile_ms", "ms"},
	{"codegen.alloc_mb", "MB"},
	{"hgraph.optimize_ms", "ms"},
	{"cache.hit_rate", "ratio"},
	{"cache.puts", "count"},
	{"cache.mem_mb", "MB"},
	{"cache.lookup_us_per_method", "us"},
	{"outline.run_ms", "ms"},
	{"outline.sep_scan_ms", "ms"},
	{"outline.symbolize_ms", "ms"},
	{"outline.tree_build_ms", "ms"},
	{"outline.detect_ms", "ms"},
	{"outline.rewrite_ms", "ms"},
	{"outline.verify_ms", "ms"},
	{"outline.alloc_mb", "MB"},
	{"outline.sequence_symbols", "count"},
	{"outline.functions", "count"},
	{"outline.occurrences", "count"},
	{"outline.words_saved", "count"},
	{"oat.link_ms", "ms"},
	{"oat.unmarshal_ms", "ms"},
	{"oat.marshal_ms", "ms"},
	{"analysis.lint_ms", "ms"},
	{"analysis.callgraph_ms", "ms"},
	{"analysis.alloc_mb", "MB"},
	{"analysis.findings", "count"},
	{"reoutline.admit_ms", "ms"},
	{"reoutline.lift_ms", "ms"},
	{"reoutline.detect_ms", "ms"},
	{"reoutline.relink_ms", "ms"},
	{"reoutline.verify_ms", "ms"},
	{"reoutline.methods_lifted", "count"},
	{"reoutline.methods_frozen", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.job_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"op_ms_mean", "ms"},
	{"residual_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// env is what every workload shares.
type env struct {
	seed    int64
	workers int // build pool width and client connections: nproc
	seconds int // --seconds, converted by each workload into fixed work
	trace   bool
}

// units converts --seconds into a fixed amount of work: --seconds divided
// by a constant per work unit (a round, a serving block), rounded, and at
// least one. Fixed work keeps the operation mix and the sample size
// identical across runs and commits, so medians and the tail percentile
// compare like with like; a faster program simply finishes sooner.
func (e *env) units(per time.Duration) int {
	return max(1, int(math.Round(float64(time.Duration(e.seconds)*time.Second)/float64(per))))
}

// rounds is units for workloads that, when traced, perform every
// operation twice (untraced, then traced): they do half the rounds.
func (e *env) rounds(per time.Duration) int {
	if e.trace {
		return max(1, e.units(per)/2)
	}
	return e.units(per)
}

// bench is one workload. A fresh value is set up for every set-up
// repeat; only the last one is measured.
type bench interface {
	setup(ctx context.Context, e *env) error
	measure(ctx context.Context, e *env) (*measurement, error)
	close()
}

var workloads = map[string]func() bench{
	"build-cold":   func() bench { return &buildCold{} },
	"serve-update": func() bench { return &serveUpdate{} },
	"reoutline":    func() bench { return &reoutlineBench{} },
}

// measurement is what a workload's timed loop and traced pass produced.
type measurement struct {
	attempted, failed int
	opMS              []float64 // untraced operation times
	methods           int       // input methods the untraced operations processed
	loop              time.Duration
	allocBytes        uint64 // heap bytes the untraced loop allocated
	outs              []*output
	problems          []string
	led               *ledger  // traced pass; nil with --trace 0
	rows              []string // workload-specific detail lines
}

// fingerprint identifies what a result may be compared with: results
// whose fingerprints differ are never aggregated or compared.
type fingerprint struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Trace      int     `json:"trace"`
	Seconds    int     `json:"seconds"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "build-cold | serve-update | reoutline")
	seed := fs.Int64("seed", 1, "workload seed: app generator seeds, update plan, Zipf draws, scripts")
	seconds := fs.Int("seconds", 15, "about how long the measured work takes, in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newBench, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload build-cold|serve-update|reoutline, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ctx := context.Background()
	e := &env{seed: *seed, workers: runtime.NumCPU(), seconds: *seconds, trace: *trace == 1}
	fp := fingerprint{
		Workload: *name, Seed: *seed, Scale: scale,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Trace: *trace, Seconds: *seconds,
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	// Set up several times and keep the last; setup_s is the median.
	var setups []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		b = newBench()
		t0 := time.Now()
		if err := b.setup(ctx, e); err != nil {
			b.close()
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	runtime.GC()

	t0 := time.Now()
	m, err := b.measure(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	t1 := time.Now()
	g := gate(ctx, m.outs, e.workers)
	fmt.Fprintf(stdout, "wall: set-up %.1f s (%d times), timed loop %.1f s, measure %.1f s, gate %.1f s over %d images\n",
		sum(setups), len(setups), m.loop.Seconds(), t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), len(m.outs))
	m.failed += g.failedOps
	m.problems = append(m.problems, g.problems...)

	t := tail(m.opMS, 10)
	e2e := map[string]float64{
		"op_ms_p50":       median(m.opMS),
		"op_ms_tail":      t.Value,
		"methods_per_s":   float64(m.methods) / m.loop.Seconds(),
		"text_ratio":      g.textRatio,
		"cycles_ratio":    g.cyclesRatio,
		"alloc_mb_per_op": float64(m.allocBytes) / (1 << 20) / float64(len(m.opMS)),
		"peak_rss_mb":     peakRSSMB(),
		"setup_s":         median(setups),
	}
	defs, values := endToEnd, e2e
	var layers map[string]float64
	if m.led != nil {
		layers = layerMetrics(m.led, mean(m.opMS))
		layers["analysis.findings"] = float64(g.findings)
		defs, values = perLayer, layers
	}
	res := resultOut{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m.problems = append(m.problems, fmt.Sprintf("%s could not be measured", d.name))
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	res.Correct = len(m.problems) == 0 && m.failed == 0

	// Detail lines: every metric by name and unit, then the result.
	fmt.Fprintf(stdout, "setup_s runs: %s\n", joinFloats(setups, "%.3f"))
	fmt.Fprintf(stdout, "op_ms_tail is p%.1f of %d untraced operations (%d beyond it)\n", t.Pct, t.N, t.Beyond)
	fmt.Fprintf(stdout, "error_rate %.6f ratio (%d failed of %d attempted)\n",
		float64(m.failed)/float64(max(m.attempted, 1)), m.failed, m.attempted)
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "%-28s %14.4f %s\n", d.name, e2e[d.name], d.unit)
	}
	for _, r := range m.rows {
		fmt.Fprintln(stdout, r)
	}
	if m.led != nil {
		m.led.writeSpans(stdout)
		writeLedger(stdout, m.led, layers)
	}
	for _, p := range m.problems {
		fmt.Fprintf(stdout, "problem: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// layerMetrics reduces the traced pass to the per-layer metrics: means
// per traced operation, plus the reconciliation against the untraced
// mean operation time of the same run.
func layerMetrics(l *ledger, untracedMean float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = l.value(d.name)
	}
	var selfs []float64
	for _, v := range l.selfMeans() {
		selfs = append(selfs, v)
	}
	out["op_ms_mean"] = untracedMean
	out["residual_ms"] = residual(untracedMean, selfs)
	out["trace_overhead_pct"] = overheadPct(l.tracedMean(), untracedMean)
	return out
}

// writeLedger prints the reconciliation: every self layer's mean per
// operation and share of the untraced mean, then the per-layer metrics.
func writeLedger(w io.Writer, l *ledger, layers map[string]float64) {
	means := l.selfMeans()
	names := make([]string, 0, len(means))
	for n := range means {
		names = append(names, n)
	}
	sort.Strings(names)
	base := layers["op_ms_mean"]
	fmt.Fprintf(w, "ledger: untraced mean op %.3f ms over the same inputs; traced mean op %.3f ms over %d ops\n",
		base, l.tracedMean(), l.ops)
	var sum float64
	for _, n := range names {
		sum += means[n]
		fmt.Fprintf(w, "ledger self %-24s %10.3f ms %6.1f%%\n", n, means[n], 100*means[n]/base)
	}
	fmt.Fprintf(w, "ledger self %-24s %10.3f ms %6.1f%%\n", "residual_ms", layers["residual_ms"], 100*layers["residual_ms"]/base)
	fmt.Fprintf(w, "ledger sum of self times %.3f ms + residual %.3f ms = %.3f ms\n", sum, layers["residual_ms"], sum+layers["residual_ms"])
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", d.name, layers[d.name], d.unit)
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
