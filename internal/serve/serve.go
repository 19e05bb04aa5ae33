// Package serve is calibrod's engine: a compile-as-a-service front end
// over the existing pipeline. It composes the pieces the previous work
// built — core.BuildCtx for cancellable builds, the bounded par pool
// inside every stage, one process-wide content-addressed cache.Cache, and
// one process-wide obs.Tracer — into an HTTP daemon with real serving
// semantics:
//
//   - a bounded job queue in front of a fixed pool of build workers, with
//     queue-depth backpressure: a submit that finds the queue full is
//     rejected immediately (HTTP 429 + Retry-After), never buffered —
//     admission control happens at the edge, not by unbounded memory;
//   - per-job deadlines and client cancellation, both delivered as one
//     context.Context threaded through core.BuildCtx down to the pool's
//     per-task pickup check, so a dead job stops consuming CPU at method
//     granularity;
//   - graceful drain: Drain stops admission, lets queued and running jobs
//     finish, and only force-cancels them if its own context expires —
//     the SIGTERM story a fleet scheduler expects;
//   - a /metrics surface exporting the server counters (queue depth,
//     queue-wait percentiles, job totals), the shared cache's hit rate,
//     and the full PR-3 telemetry snapshot.
//
// Determinism is inherited, not re-proven: a job's image is byte-identical
// to a direct core.BuildCtx of the same app and configuration, because the
// cache, the tracer, the worker pool, and the context all observe or
// schedule without steering output. The serve tests pin that end to end.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Config parameterizes the daemon. The zero value of every field selects
// a sensible default, so serve.New(serve.Config{}) is a working server.
type Config struct {
	// QueueDepth bounds how many accepted jobs may wait for a worker;
	// a submit beyond it is rejected with ErrQueueFull (HTTP 429).
	// Default 16.
	QueueDepth int
	// Workers is the number of concurrent builds (not to be confused
	// with the per-build pool width). Default 2.
	Workers int
	// BuildWorkers is the default core.Config.Workers for jobs that do
	// not pick their own; <= 0 selects GOMAXPROCS.
	BuildWorkers int
	// MaxJobTime caps every job's deadline, measured from submission
	// (queue time counts — a deadline is a promise to the client, not to
	// the scheduler). A request's timeout_ms may shorten it, never extend
	// it. Default 2 minutes.
	MaxJobTime time.Duration
	// Scale is the app scale factor for jobs that name a profile without
	// one. Default 0.25.
	Scale float64
	// Cache, when non-nil, is shared by every job: concurrent and
	// repeated submissions of the same compilation inputs hit instead of
	// recompiling. Bound it with cache.SetLimits in a long-lived process.
	Cache *cache.Cache
	// Remote, when non-nil, enables the fleet layer: eligible jobs are
	// served from published whole-build artifacts and coalesced across
	// daemons via single-flight claims (see fleet.go). Defaults to the
	// remote tier attached to Cache, so wiring -remote-cache once covers
	// both the method cache and the fleet layer.
	Remote *cache.Remote
	// FleetWait bounds how long a single-flight loser waits for the
	// winner's artifact before building locally anyway. Default 30s.
	FleetWait time.Duration
	// Tracer, when non-nil, records every job's build telemetry into one
	// process-wide recording, exported by /metrics. Job lifecycle spans
	// (queued, terminal state) are stitched into it on obs.LaneServe with
	// the job's numeric ID as the "job" correlation arg.
	Tracer *obs.Tracer
	// Log, when non-nil, receives structured JSON job and HTTP access
	// events. Logging observes committed state transitions and never
	// steers admission, scheduling, or build output.
	Log *EventLogger
	// MaxBody bounds a submit request body in bytes; a payload beyond it
	// is rejected with HTTP 413 before it can occupy memory. Default
	// 64 MiB.
	MaxBody int64
	// Retention bounds how many terminal jobs stay pollable: beyond it,
	// the oldest finished/failed/canceled jobs are forgotten (their
	// endpoints answer 404). Queued and running jobs are never evicted.
	// Default 1024; negative keeps every job forever.
	Retention int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxJobTime <= 0 {
		c.MaxJobTime = 2 * time.Minute
	}
	if c.Scale <= 0 {
		c.Scale = 0.25
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.Retention == 0 {
		c.Retention = 1024
	}
	if c.Remote == nil && c.Cache != nil {
		c.Remote = c.Cache.Remote()
	}
	if c.FleetWait <= 0 {
		c.FleetWait = 30 * time.Second
	}
	return c
}

// Sentinel errors the HTTP layer maps onto statuses.
var (
	// ErrQueueFull rejects a submit when every queue slot is taken
	// (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining rejects a submit after Drain began (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
)

// Server runs build jobs from a bounded queue on a fixed worker pool.
// Create with New; every method is safe for concurrent use.
type Server struct {
	cfg Config

	// enqMu serializes admission against drain: submit checks draining
	// and sends while holding it, Drain flips the flag and closes the
	// queue while holding it, so nobody sends on a closed channel.
	enqMu    sync.Mutex
	draining bool
	queue    chan *job

	wg sync.WaitGroup // build workers

	mu      sync.Mutex
	jobs    map[string]*job
	nextID  int64
	retired []string // terminal job IDs, oldest first, for Retention

	running  atomic.Int64 // jobs in a worker right now
	accepted atomic.Int64 // submits that entered the queue
	done     atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	rejected atomic.Int64 // 429s
	invalid  atomic.Int64 // submits refused as unparseable/invalid (400/413)

	// Fleet outcomes (zero without a remote tier): jobs served from a
	// published artifact, builds this daemon won and published, jobs
	// coalesced onto a peer's build, and long-poll losers that gave up
	// and built locally.
	fleetHits      atomic.Int64
	fleetWins      atomic.Int64
	fleetCoalesced atomic.Int64
	fleetFallbacks atomic.Int64

	// Bounded distributions: fixed-size histograms, so a daemon serving
	// millions of jobs holds the same few KB it held after the first one.
	queueWait obs.Histogram // dequeue - submit, µs
	jobDur    obs.Histogram // terminal - submit (end-to-end), µs
}

// New starts the worker pool and returns a serving Server. Callers serve
// HTTP with Handler and stop with Drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  map[string]*job{},
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// submit validates and admits one job: registered, deadlined, and either
// queued or rejected — a full queue answers now, it never blocks the
// caller behind other people's builds.
func (s *Server) submit(req JobRequest) (*job, error) {
	req = req.withDefaults(s.cfg.Scale)
	if err := req.validate(); err != nil {
		return nil, err
	}
	timeout := s.cfg.MaxJobTime
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	j := &job{
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: time.Now(),
		doneCh:    make(chan struct{}),
	}

	s.enqMu.Lock()
	if s.draining {
		s.enqMu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	// The ID must be set before the queue send: the moment the send
	// lands, a worker may read j.seq and j.id, and the send is the only
	// happens-before edge between submit and that worker. Submits
	// serialize on enqMu, so un-claiming the ID on rejection keeps IDs
	// dense.
	s.mu.Lock()
	s.nextID++
	j.seq = s.nextID
	j.id = fmt.Sprintf("j%d", s.nextID)
	s.mu.Unlock()
	select {
	case s.queue <- j:
		// Register only admitted jobs: a rejected submit leaves no trace
		// to leak, and an admitted one is pollable the moment the submit
		// response is written.
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.enqMu.Unlock()
		s.accepted.Add(1)
		s.cfg.Log.Log("job_accept", map[string]any{
			"job": j.id, "kind": req.Kind, "app": req.App,
		})
		return j, nil
	default:
		s.mu.Lock()
		s.nextID--
		s.mu.Unlock()
		s.enqMu.Unlock()
		cancel()
		s.rejected.Add(1)
		s.cfg.Log.Log("job_reject", map[string]any{
			"kind": req.Kind, "app": req.App, "reason": "queue_full",
		})
		return nil, ErrQueueFull
	}
}

// lookup returns a registered job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker is one build lane: it drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one dequeued job. A job cancelled or expired while
// queued is finished without building; everything else builds under the
// job's context, so cancellation mid-build stops at the pool's next task
// pickup.
func (s *Server) runJob(j *job) {
	now := time.Now()
	wait := now.Sub(j.submitted)
	s.queueWait.Observe(wait.Microseconds())
	s.cfg.Tracer.SpanAt("serve", "queued", obs.LaneServe, j.submitted, now,
		map[string]int64{"job": j.seq})

	j.mu.Lock()
	if terminal(j.state) { // cancelled while queued; already finished
		j.mu.Unlock()
		return
	}
	j.queueWait = wait
	j.dequeued = now
	if err := j.ctx.Err(); err != nil {
		j.mu.Unlock()
		s.finishJob(j, nil, err)
		return
	}
	j.state = StateRunning
	j.mu.Unlock()
	s.cfg.Log.Log("job_start", map[string]any{
		"job": j.id, "kind": j.req.Kind, "app": j.req.App,
		"queue_wait_us": wait.Microseconds(),
	})

	s.running.Add(1)
	out, err := s.build(j.ctx, j.req, wait)
	s.running.Add(-1)
	s.finishJob(j, out, err)
}

// finishJob moves a job to its terminal state exactly once; later calls
// (a cancel racing the worker) are no-ops.
func (s *Server) finishJob(j *job, out *buildOutput, err error) {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.image = out.image
		j.stats = out.stats
		j.lint = out.lint
		s.done.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = err.Error()
		s.canceled.Add(1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.failed.Add(1)
	}
	state, errMsg := j.state, j.errMsg
	started, finished := j.dequeued, j.finished
	// Count the latency before waking waiters or releasing the lock: a
	// client that sees the terminal state also sees the job in
	// calibrod_job_duration_seconds.
	wall := finished.Sub(j.submitted)
	s.jobDur.Observe(wall.Microseconds())
	close(j.doneCh)
	j.mu.Unlock()
	j.cancel() // release the deadline timer

	if !started.IsZero() {
		// The run span is named by outcome, so the serve lane of the
		// global trace reads as a timeline of terminal states.
		s.cfg.Tracer.SpanAt("serve", string(state), obs.LaneServe,
			started, finished, map[string]int64{"job": j.seq})
	}
	s.cfg.Log.Log("job_finish", map[string]any{
		"job": j.id, "state": string(state), "wall_us": wall.Microseconds(),
		"error": errMsg,
	})
	s.retire(j.id)
}

// retire records one more terminal job and evicts the oldest beyond the
// retention window, so the jobs registry is bounded no matter how long
// the daemon serves. Eviction only ever touches terminal jobs (retired
// holds nothing else), so a queued or running job is never forgotten.
func (s *Server) retire(id string) {
	if s.cfg.Retention < 0 {
		return
	}
	s.mu.Lock()
	s.retired = append(s.retired, id)
	for len(s.retired) > s.cfg.Retention {
		delete(s.jobs, s.retired[0])
		s.retired[0] = ""
		s.retired = s.retired[1:]
	}
	// Don't let the sliced-off prefix pin the backing array forever.
	if cap(s.retired) > 2*len(s.retired)+16 {
		s.retired = append([]string(nil), s.retired...)
	}
	s.mu.Unlock()
}

// cancelJob delivers a client cancellation: the job's context is
// cancelled (a running build stops at the pool's next task pickup), and a
// still-queued job is finished immediately — the worker that eventually
// dequeues it finds it terminal and skips.
func (s *Server) cancelJob(j *job) {
	j.cancel()
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		s.finishJob(j, nil, context.Canceled)
	}
}

// Drain stops admission (further submits fail with ErrDraining), lets
// every queued and running job finish, and returns when the worker pool
// has exited. If ctx expires first, every outstanding job is cancelled,
// the pool is still awaited (cancellation stops builds at task
// granularity, so this is prompt), and ctx's error is returned. Drain is
// idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.enqMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.enqMu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-drained
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.enqMu.Lock()
	defer s.enqMu.Unlock()
	return s.draining
}
