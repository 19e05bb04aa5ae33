// Package par is the bounded worker pool the per-method pipeline stages
// fan out on. The paper's production blocker is build time (Table 6: the
// global suffix tree alone costs +489.5%), and every stage that works on
// one method at a time — HGraph optimization + code generation, sequence
// symbolization, rewrite verification, image linting — is embarrassingly
// parallel. What makes a pool usable for a *build* tool, though, is
// determinism: the output (and the reported error) must be byte-identical
// whether the pool runs 1 worker or 64. The helpers here guarantee that
// by construction:
//
//   - results land at their input index, never in completion order;
//   - when several inputs fail, the error of the lowest index wins, so a
//     parallel run reports exactly the failure a serial run would;
//   - the worker count changes scheduling only, never the work done.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0), anything positive is returned unchanged. Every
// stage of the pipeline funnels its Config/Options width through this so
// "0 means the machine" is one rule, defined once.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// TaskObserver is the pool's telemetry hook: called once per completed
// task with the worker that ran it (0..W-1), the task index, how long the
// task waited for a worker slot (measured from batch submission), and how
// long it ran. A nil observer disables all timing on the hot path. The
// observer is called concurrently from pool goroutines and must be safe
// for concurrent use; it must only observe — a pool user's determinism
// contract assumes the observer feeds nothing back into the work.
// obs.Tracer.PoolObserver vends a compatible callback.
type TaskObserver func(worker, index int, queueWait, run time.Duration)

// MapCtx runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns the results indexed by i.
//
// Determinism contract: out[i] depends only on fn(i); if any calls fail,
// the returned error is the one from the lowest failing index. A serial
// run stops at the first failure, a parallel run completes the batch and
// then selects the same error — either way the caller observes identical
// results for every worker count.
//
// Cancellation: the pool checks ctx before picking up every task, so a
// cancelled or deadline-expired context stops the batch at task
// granularity. Tasks already running are never interrupted (fn receives
// no context; pass one through a closure if the work itself should
// observe it), but no new task starts; MapObsCtx states what the call
// then returns.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapObsCtx(ctx, workers, n, nil, fn)
}

// MapObsCtx is the full-generality pool entry point: MapCtx plus a
// per-task observer. The observer changes nothing about scheduling or
// results; with obs == nil the timing calls are skipped entirely, so an
// unobserved batch pays no telemetry cost.
//
// Cancellation contract: when ctx is cancelled before every task has been
// picked up, the call returns (nil, ctx.Err()) — the batch is incomplete,
// so no partial results escape and the context error wins over any task
// error. When every task completed before cancellation was observed, the
// normal MapCtx contract applies (results indexed by i, lowest failing
// index's error).
func MapObsCtx[T any](ctx context.Context, workers, n int, obs TaskObserver, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if obs == nil {
				v, err := fn(i)
				if err != nil {
					return nil, err
				}
				out[i] = v
				continue
			}
			// Serial queue wait: time spent behind earlier tasks.
			pick := time.Now()
			v, err := fn(i)
			obs(0, i, pick.Sub(t0), time.Since(pick))
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	// Workers claim index *ranges*, not single indices: one shared-counter
	// RMW per batch instead of per task keeps the cache line holding next
	// out of the hot path when tasks are microseconds long. The batch is
	// sized so every worker still makes ~8 trips to the counter, which
	// bounds tail imbalance to batch/n of the work.
	batch := n / (w * 8)
	if batch < 1 {
		batch = 1
	} else if batch > 64 {
		batch = 64
	}
	// Cancellation is probed per *item* — the pool's contract is that no
	// task starts after cancellation is observable, batching or not — but
	// through the Done channel, fetched once: a non-blocking receive costs
	// a few atomics where ctx.Err() takes a mutex on every probe. A nil
	// Done (context.Background) skips the probe entirely, so the
	// un-cancellable case pays nothing.
	done := ctx.Done()
	errs := make([]error, n)
	var next atomic.Int64
	var stopped atomic.Bool // a worker saw cancellation and skipped work
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(batch)))
				lo := hi - batch
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if done != nil {
						select {
						case <-done:
							stopped.Store(true)
							return
						default:
						}
					}
					if obs == nil {
						out[i], errs[i] = fn(i)
						continue
					}
					pick := time.Now()
					out[i], errs[i] = fn(i)
					obs(worker, i, pick.Sub(t0), time.Since(pick))
				}
			}
		}(g)
	}
	wg.Wait()
	if stopped.Load() {
		return nil, ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EachCtx is MapCtx for side-effecting stages: fn(i) must touch only
// state owned by index i. The same lowest-index-error rule and
// cancellation contract apply.
func EachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return EachObsCtx(ctx, workers, n, nil, fn)
}

// EachObsCtx is EachCtx with a per-task observer; see MapObsCtx.
func EachObsCtx(ctx context.Context, workers, n int, obs TaskObserver, fn func(i int) error) error {
	_, err := MapObsCtx(ctx, workers, n, obs, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
