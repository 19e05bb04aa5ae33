package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer during a traced
// operation. Spans of one operation share its op number; every span's
// parent is that operation.
type span struct {
	op     int
	layer  string
	nested bool // measured separately after the operation, not part of it
	start  time.Time
	end    time.Time
}

// booking says where a span's duration goes.
type booking int

const (
	bookSelf   booking = iota // an additive self time of the operation
	bookNested                // a separately called measurement (info)
	bookNone                  // recorded as a span only; stage clocks split it
)

// ledger collects the traced pass of one workload: the spans the
// benchmark recorded around each layer call, and per-operation values
// the layers report themselves (stage clocks, counts, bytes). It is safe
// for concurrent use by several clients.
//
// Self times are additive: they partition the traced operation, so their
// sum plus the residual is the operation's time. Everything else
// ("nested" times measured by calling a layer again after the operation,
// sub-phases of a self layer, counts) is informational and never summed.
type ledger struct {
	mu      sync.Mutex
	ops     int
	opMS    float64            // traced operation wall time, summed
	self    map[string]float64 // additive self times (ms), summed over ops
	info    map[string]float64 // other per-op values, summed over ops
	fixed   map[string]float64 // values for the whole pass, not per op
	spans   []span
	opKeys  []string  // input of each traced op, for the span dump
	opTimes []float64 // wall time of each traced op, by op number
}

func newLedger() *ledger {
	return &ledger{self: map[string]float64{}, info: map[string]float64{}, fixed: map[string]float64{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// beginOp starts a traced operation and returns its number.
func (l *ledger) beginOp(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opKeys = append(l.opKeys, key)
	l.opTimes = append(l.opTimes, 0)
	return len(l.opKeys) - 1
}

// endOp closes operation op, which took d.
func (l *ledger) endOp(op int, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	l.opMS += ms(d)
	l.opTimes[op] = ms(d)
}

// call times fn as a self-time span of layer within op; allocName, when
// not empty, also books the heap bytes fn allocated, in MB.
func (l *ledger) call(op int, layer, allocName string, fn func() error) error {
	return l.record(op, layer, bookSelf, allocName, fn)
}

// nested times fn as a separately called measurement of layer: a span
// of the operation, but outside its self-time partition.
func (l *ledger) nested(op int, layer, allocName string, fn func() error) error {
	return l.record(op, layer, bookNested, allocName, fn)
}

// wrap records fn as a span of op without booking its duration.
func (l *ledger) wrap(op int, layer string, fn func() error) error {
	return l.record(op, layer, bookNone, "", fn)
}

func (l *ledger) record(op int, layer string, b booking, allocName string, fn func() error) error {
	var a0 uint64
	if allocName != "" {
		a0 = heapAllocBytes()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	var alloc float64
	if allocName != "" {
		alloc = float64(heapAllocBytes()-a0) / (1 << 20)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if allocName != "" {
		l.info[allocName] += alloc
	}
	l.spans = append(l.spans, span{op: op, layer: layer, nested: b == bookNested, start: start, end: end})
	switch b {
	case bookSelf:
		l.self[layer] += ms(end.Sub(start))
	case bookNested:
		l.info[layer] += ms(end.Sub(start))
	}
	return err
}

// bookSelf adds a stage clock the program itself reported as self time:
// used where a layer's internal stages cannot be called one at a time
// from outside (the re-outliner's stages, the daemon's job stages).
func (l *ledger) bookSelf(layer string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.self[layer] += ms(d)
}

// add accumulates a per-op info value.
func (l *ledger) add(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.info[name] += v
}

// set records a value that describes the whole traced pass.
func (l *ledger) set(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fixed[name] = v
}

// value returns a whole-pass value, or the mean per traced operation of
// a self or info value.
func (l *ledger) value(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v, ok := l.fixed[name]; ok {
		return v
	}
	if l.ops == 0 {
		return 0
	}
	if v, ok := l.self[name]; ok {
		return v / float64(l.ops)
	}
	return l.info[name] / float64(l.ops)
}

// selfMeans returns each self layer's mean per operation, by name.
func (l *ledger) selfMeans() map[string]float64 {
	l.mu.Lock()
	names := make([]string, 0, len(l.self))
	for name := range l.self {
		names = append(names, name)
	}
	l.mu.Unlock()
	out := map[string]float64{}
	for _, name := range names {
		out[name] = l.value(name)
	}
	return out
}

// tracedMean is the mean traced operation time in ms.
func (l *ledger) tracedMean() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ops == 0 {
		return 0
	}
	return l.opMS / float64(l.ops)
}

// writeSpans prints one line per traced operation with the durations of
// its spans in call order; nested spans are marked with a leading '+'.
func (l *ledger) writeSpans(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	byOp := map[int][]span{}
	for _, s := range l.spans {
		byOp[s.op] = append(byOp[s.op], s)
	}
	for op, key := range l.opKeys {
		var b strings.Builder
		fmt.Fprintf(&b, "span op=%d input=%s op_ms=%.3f", op, key, l.opTimes[op])
		for _, s := range byOp[op] {
			mark := ""
			if s.nested {
				mark = "+"
			}
			fmt.Fprintf(&b, " %s%s=%.3f", mark, s.layer, ms(s.end.Sub(s.start)))
		}
		fmt.Fprintln(w, b.String())
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative bytes the Go heap has allocated, read
// without stopping the world.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
