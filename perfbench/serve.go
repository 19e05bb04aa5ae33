package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Serving traffic shape. App popularity is Zipf (exponent zipfS) over the
// six paper apps with Obfuscated in the tail. The plan is drawn in blocks
// of blockLen submissions that each hold every app exactly its Zipf share
// of times, in an order the seed shuffles: a run sees only a few dozen
// submissions, and independent draws would let the seed swing the app mix
// and with it every latency. Every updateEvery-th submission ships the
// drawn app's next version with updateDelta of its methods regenerated.
// A run submits whole blocks; blockTime is how many seconds of --seconds
// buy one (a block takes about 8 s on a 2-CPU host).
const (
	zipfS       = 1.3
	blockLen    = 24
	blockTime   = 8 * time.Second
	updateEvery = 12
	updateDelta = 0.10
)

// retention is how many finished jobs the daemon keeps pollable. Each
// keeps its request and image, so the default (1024) would make peak
// memory grow with how many jobs a run completes; a client fetches what
// it needs as soon as its job is done.
const retention = 16

// serveConfig is the configuration every submission asks for: the
// daemon's default ladder rung with image verification on.
const serveConfig = "plopti"

// serveUpdate is the daemon path: an in-process calibrod with one build
// worker serving dex payloads over loopback HTTP to closed-loop clients
// (one per CPU), each submitting, long-polling with ?wait= and fetching
// the image before its next submission. The shared method cache is warm
// with every app's version 0, so compile mostly reads it while outline
// and verification still run in full.
type serveUpdate struct {
	plan   []*planEntry
	cache  *cache.Cache
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP server's Serve returns
	base   string
	client *http.Client
}

// planEntry is one submission: an app version and its request body.
type planEntry struct {
	in      *appInput
	payload []byte // serialized dex
	body    []byte // JSON JobRequest
}

func (s *serveUpdate) setup(ctx context.Context, e *env) error {
	profiles := seededProfiles(e.seed, true)
	r := rand.New(rand.NewSource(e.seed))
	var block []int
	for a, n := range zipfCounts(len(profiles), blockLen) {
		for ; n > 0; n-- {
			block = append(block, a)
		}
	}
	entries := map[string]*planEntry{}
	entry := func(a, version int) (*planEntry, error) {
		key := fmt.Sprintf("%s/v%d", profiles[a].Name, version)
		if pe, ok := entries[key]; ok {
			return pe, nil
		}
		pe, err := newPlanEntry(key, workload.Update(profiles[a], version, updateDelta), e.seed)
		entries[key] = pe
		return pe, err
	}
	version := make([]int, len(profiles))
	for i := 0; i < e.units(blockTime)*blockLen; i++ {
		if i%blockLen == 0 {
			r.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
		}
		a := block[i%blockLen]
		if (i+1)%updateEvery == 0 {
			version[a]++
		}
		pe, err := entry(a, version[a])
		if err != nil {
			return err
		}
		s.plan = append(s.plan, pe)
	}
	// Warm the method cache with every app's version 0, compiled the way
	// the daemon compiles it.
	s.cache = cache.New()
	for a := range profiles {
		pe, err := entry(a, 0)
		if err != nil {
			return err
		}
		opts := codegen.Options{CTO: true, Optimize: true, Workers: e.workers, Cache: s.cache}
		if _, err := codegen.CompileCtx(ctx, pe.in.app, opts); err != nil {
			return fmt.Errorf("warming the cache with %s: %w", pe.in.name, err)
		}
	}

	s.srv = serve.New(serve.Config{
		Workers: 1, BuildWorkers: e.workers, Cache: s.cache, Scale: scale, Retention: retention,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}}
	return nil
}

// zipfCounts apportions total submissions over apps ranked by popularity
// in proportion to the Zipf weights (1+rank)^-zipfS, largest remainder
// first, giving every app at least one. total must be at least apps.
func zipfCounts(apps, total int) []int {
	weights := make([]float64, apps)
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -zipfS)
		sum += weights[k]
	}
	counts := make([]int, apps)
	rem := make([]float64, apps)
	left := total
	for k, w := range weights {
		share := float64(total) * w / sum
		counts[k] = max(1, int(share))
		rem[k] = share - float64(counts[k])
		left -= counts[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best]--
	}
	// The floor of one can overshoot a small total: take back from the
	// apps furthest over their share.
	for ; left < 0; left++ {
		worst := -1
		for k := range rem {
			if counts[k] > 1 && (worst < 0 || rem[k] < rem[worst]) {
				worst = k
			}
		}
		counts[worst]--
		rem[worst]++
	}
	return counts
}

func newPlanEntry(key string, p workload.Profile, seed int64) (*planEntry, error) {
	in, err := newAppInput(key, p, seed)
	if err != nil {
		return nil, err
	}
	payload, err := dex.Marshal(in.app)
	if err != nil {
		return nil, fmt.Errorf("serializing %s: %w", key, err)
	}
	body, err := json.Marshal(serve.JobRequest{Dex: payload, Config: serveConfig, Verify: true})
	if err != nil {
		return nil, err
	}
	return &planEntry{in: in, payload: payload, body: body}, nil
}

// close stops the HTTP server and the daemon and waits for both.
func (s *serveUpdate) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.hs != nil {
		s.hs.Shutdown(ctx) //nolint:errcheck // best effort at exit
		<-s.served
	}
	if s.srv != nil {
		s.srv.Drain(ctx) //nolint:errcheck // best effort at exit
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// jobResult is what one client operation observed.
type jobResult struct {
	id      string
	image   []byte
	latency time.Duration
}

// job is one operation: submit, wait until terminal, fetch the image.
// With a ledger it records a span around each request.
func (s *serveUpdate) job(ctx context.Context, pe *planEntry, l *ledger, op int) (*jobResult, error) {
	wrap := func(name string, fn func() error) error {
		if l == nil {
			return fn()
		}
		return l.wrap(op, name, fn)
	}
	t0 := time.Now()
	var st serve.JobStatus
	if err := wrap("serve.submit", func() error {
		return s.getJSON(ctx, http.MethodPost, s.base+"/jobs", pe.body, http.StatusAccepted, &st)
	}); err != nil {
		return nil, err
	}
	if err := wrap("serve.wait", func() error {
		return s.getJSON(ctx, http.MethodGet, s.base+"/jobs/"+st.ID+"?wait=120s", nil, http.StatusOK, &st)
	}); err != nil {
		return nil, err
	}
	if st.State != serve.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var image []byte
	if err := wrap("serve.fetch", func() (err error) {
		image, err = s.get(ctx, http.MethodGet, s.base+"/jobs/"+st.ID+"/image", nil, http.StatusOK)
		return err
	}); err != nil {
		return nil, err
	}
	return &jobResult{id: st.ID, image: image, latency: time.Since(t0)}, nil
}

func (s *serveUpdate) get(ctx context.Context, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *serveUpdate) getJSON(ctx context.Context, method, url string, body []byte, want int, v any) error {
	data, err := s.get(ctx, method, url, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// clientLoop runs closed-loop clients that take plan positions in turn
// until every position has been submitted once.
func clientLoop(clients, positions int, op func(pos int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for pos := int(next.Add(1) - 1); pos < positions; pos = int(next.Add(1) - 1) {
				op(pos)
			}
		}()
	}
	wg.Wait()
}

func (s *serveUpdate) measure(ctx context.Context, e *env) (*measurement, error) {
	m := &measurement{}
	var mu sync.Mutex
	outs := map[*planEntry]*output{}
	var order []*planEntry
	latency := map[*planEntry][]float64{}
	keep := func(pe *planEntry, jr *jobResult, err error) {
		mu.Lock()
		defer mu.Unlock()
		m.attempted++
		if err != nil {
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("%s: %v", pe.in.name, err))
			return
		}
		o, ok := outs[pe]
		switch {
		case !ok:
			outs[pe] = &output{key: pe.in.name, in: pe.in, image: jr.image, ops: 1}
			order = append(order, pe)
		case bytes.Equal(o.image, jr.image):
			o.ops++
		default:
			m.failed++
			m.problems = append(m.problems, pe.in.name+": two jobs on the same input returned different images")
		}
	}

	// With tracing, odd plan positions run traced and even ones untraced,
	// so both samples come from the same plan segment and load. The
	// traced operations' follow-up measurements wait until the loop has
	// ended, so they do not change the load the daemon sees.
	var l *ledger
	var pending []*tracedJob
	var before cache.Stats
	if e.trace {
		l = newLedger()
		m.led = l
		before = s.cache.Stats()
	}
	a0 := heapAllocBytes()
	start := time.Now()
	clientLoop(e.workers, len(s.plan), func(pos int) {
		pe := s.plan[pos]
		if e.trace && pos%2 == 1 {
			tj, err := s.runTraced(ctx, l, pe)
			keep(pe, tj.jr, err)
			if err == nil {
				mu.Lock()
				pending = append(pending, tj)
				mu.Unlock()
			}
			return
		}
		jr, err := s.job(ctx, pe, nil, 0)
		if err == nil {
			mu.Lock()
			m.opMS = append(m.opMS, ms(jr.latency))
			m.methods += pe.in.app.NumMethods()
			latency[pe] = append(latency[pe], ms(jr.latency))
			mu.Unlock()
		}
		keep(pe, jr, err)
	})
	m.loop = time.Since(start)
	m.allocBytes = heapAllocBytes() - a0
	if e.trace {
		after := s.cache.Stats()
		if lookups := after.Hits + after.Misses - before.Hits - before.Misses; lookups > 0 {
			l.set("cache.hit_rate", float64(after.Hits-before.Hits)/float64(lookups))
		}
		l.set("cache.puts", float64(after.Entries-before.Entries)/float64(max(m.attempted, 1)))
		l.set("cache.mem_mb", float64(after.MemBytes)/(1<<20))
		for _, tj := range pending {
			if err := s.bookJob(ctx, l, tj, e.workers); err != nil {
				m.problems = append(m.problems, fmt.Sprintf("traced %s: %v", tj.pe.in.name, err))
			}
		}
	}

	// Gate: every served image must equal a direct core.BuildCtx of the
	// same dex payload under the same configuration.
	for _, pe := range order {
		o := outs[pe]
		if err := buildBaseline(ctx, pe.in, e.workers); err != nil {
			return nil, err
		}
		app, err := dex.UnmarshalApp(pe.payload)
		if err != nil {
			return nil, fmt.Errorf("re-reading %s: %w", pe.in.name, err)
		}
		cfg := core.CTOLTBOPl(8)
		cfg.VerifyImage = true
		cfg.Workers = e.workers
		res, err := core.BuildCtx(ctx, app, cfg)
		if err != nil {
			return nil, fmt.Errorf("direct build of %s: %w", pe.in.name, err)
		}
		if o.want, err = res.Image.Marshal(); err != nil {
			return nil, err
		}
		m.outs = append(m.outs, o)
		m.rows = append(m.rows, fmt.Sprintf("input %-14s op_ms median %.3f of %s",
			pe.in.name, median(latency[pe]), joinFloats(latency[pe], "%.1f")))
	}
	m.rows = append(m.rows, fmt.Sprintf("serve: %d submissions, %d distinct images", m.attempted, len(order)))
	return m, nil
}

// tracedJob is one traced operation awaiting its follow-up measurements.
type tracedJob struct {
	op      int
	pe      *planEntry
	jr      *jobResult
	stats   serve.JobStats
	missing []*dex.Method // methods the cache did not hold before submission
}

// runTraced is job with a span around each request, followed by a fetch
// of the daemon's own JobStats for it. Before submitting it notes which
// methods the cache does not hold yet.
func (s *serveUpdate) runTraced(ctx context.Context, l *ledger, pe *planEntry) (*tracedJob, error) {
	tj := &tracedJob{pe: pe}
	opts := codegen.Options{CTO: true, Optimize: true}
	for _, meth := range pe.in.app.Methods {
		if !s.cache.Contains(codegen.CacheKey(meth, pe.in.app.Methods, opts)) {
			tj.missing = append(tj.missing, meth)
		}
	}
	tj.op = l.beginOp(pe.in.name)
	var err error
	if tj.jr, err = s.job(ctx, pe, l, tj.op); err != nil {
		return tj, err
	}
	l.endOp(tj.op, tj.jr.latency)
	return tj, l.nested(tj.op, "serve.stats", "", func() error {
		return s.getJSON(ctx, http.MethodGet, s.base+"/jobs/"+tj.jr.id+"/stats", nil, http.StatusOK, &tj.stats)
	})
}

// bookJob books a traced job's own stage clocks (JobStats) into the
// ledger: queue wait, compile, outline, link and verify; HTTP time is the
// client latency minus queue wait and the job's wall time. It then
// measures hgraph over the methods the cache did not hold before the
// submission, and the cache's read path over every method.
func (s *serveUpdate) bookJob(ctx context.Context, l *ledger, tj *tracedJob, workers int) error {
	js := tj.stats
	us := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	l.bookSelf("serve.queue_wait_ms", us(js.QueueWaitUS))
	l.bookSelf("codegen.compile_ms", us(js.CompileUS))
	l.bookSelf("outline.run_ms", us(js.OutlineUS))
	l.bookSelf("oat.link_ms", us(js.LinkUS))
	l.bookSelf("analysis.lint_ms", us(js.VerifyUS))
	l.bookSelf("serve.http_ms", tj.jr.latency-us(js.QueueWaitUS)-us(js.WallUS))
	l.add("serve.job_ms", ms(us(js.CompileUS+js.OutlineUS+js.LinkUS+js.VerifyUS)))
	l.add("outline.functions", float64(js.OutlinedFunctions))
	l.add("outline.occurrences", float64(js.OutlinedOccurrences))
	l.add("outline.words_saved", float64(js.NetWordsSaved))

	if err := l.nested(tj.op, "hgraph.optimize_ms", "", func() error {
		return optimizeAll(ctx, tj.missing, workers)
	}); err != nil {
		return err
	}
	lookupUS, err := lookupAll(s.cache, tj.pe.in.app.Methods, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		return err
	}
	l.add("cache.lookup_us_per_method", lookupUS)
	return nil
}
