// Compilation caching: per-method code generation is a pure function of
// the method's bytecode, the signatures of the methods it references, and
// the Options knobs that change emitted words. This file owns the two
// halves of that contract the cache store (internal/cache) deliberately
// does not know about:
//
//   - CacheKey, the key schema: exactly which inputs invalidate a cached
//     artifact. Anything that can change the emitted words or the LTBO
//     metadata must be hashed; anything that by the determinism contract
//     cannot (Workers, Tracer, the cache itself) must not be.
//   - The entry codec: a CompiledMethod minus its *dex.Method, serialized
//     in a versioned little-endian layout. Decoding builds fresh slices
//     from immutable bytes, so a cache hit can never alias state the
//     outliner later rewrites in place.

package codegen

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/a64"
	"repro/internal/cache"
	"repro/internal/dex"
	"repro/internal/par"
)

// cacheSchema tags the key layout. Bump it whenever the fields hashed by
// CacheKey — or their order or encoding — change; stale on-disk caches
// then read as misses instead of being silently poisoned. The pinned
// golden in TestCacheKeyStability guards against accidental drift.
const cacheSchema = "calibro/method-key/v1"

// CacheKey returns the content address of m's compiled form under opts.
// methods is the app-wide table (indexed by dex.MethodID) used to resolve
// the signatures of invoked callees: a caller's code embeds only the
// callee's numeric ID, so hashing the callee signature too keeps one
// on-disk cache safe across apps where the same ID names different
// methods.
func CacheKey(m *dex.Method, methods []*dex.Method, opts Options) cache.Key {
	h := cache.NewHasher(cacheSchema)
	// The option knobs that reach the emitter. Workers and Tracer are
	// excluded by the determinism contract: they change scheduling and
	// observation, never output.
	h.Bool(opts.CTO)
	h.Bool(opts.Optimize)
	// The method's own shape and bytecode. Its MethodID is deliberately
	// not hashed: emitted code never depends on the method's own slot.
	h.Int(int64(m.NumRegs))
	h.Int(int64(m.NumIns))
	h.Bool(m.Native)
	h.Int(int64(len(m.Pool)))
	for _, v := range m.Pool {
		h.Uint(v)
	}
	h.Int(int64(len(m.Code)))
	for _, in := range m.Code {
		h.Int(int64(in.Op))
		h.Int(int64(in.A))
		h.Int(int64(in.B))
		h.Int(int64(in.C))
		h.Int(in.Lit)
		h.Int(int64(in.Target))
		h.Int(int64(len(in.Targets)))
		for _, t := range in.Targets {
			h.Int(int64(t))
		}
		h.Int(int64(in.Method))
		h.Int(int64(in.Native))
		if in.Op == dex.OpInvoke {
			if id := int(in.Method); id < len(methods) && methods[id] != nil {
				callee := methods[id]
				h.Str(callee.Class)
				h.Str(callee.Name)
				h.Int(int64(callee.NumRegs))
				h.Int(int64(callee.NumIns))
				h.Bool(callee.Native)
			} else {
				h.Str("<unresolved>")
			}
		}
	}
	return h.Sum()
}

// cacheEntryVersion guards the payload layout below, inside the store's
// own sealed frame. A payload with a different version decodes to an
// error, which the compile path treats as a miss.
const cacheEntryVersion = 1

// EncodeCachedMethod serializes everything of a CompiledMethod except the
// *dex.Method it was compiled from (the key already identifies that; the
// decoder re-binds the caller's method). Call it before the outliner can
// touch the artifact: the snapshot must be the pristine compile output.
func EncodeCachedMethod(cm *CompiledMethod) []byte {
	// One exact-size allocation, appended with direct little-endian puts:
	// this runs once per cache miss, and the reflective binary.Write path
	// it replaces dominated the miss-side encode cost.
	size := 4 * (3 + len(cm.Code) + 1 + 2*len(cm.Meta.PCRel) +
		1 + len(cm.Meta.Terminators) +
		1 + 2*len(cm.Meta.EmbeddedData) + 1 + 2*len(cm.Meta.Slowpaths) +
		1 + 3*len(cm.StackMap) + 1)
	size += 12 * len(cm.Ext)
	buf := make([]byte, 0, size)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u32(cacheEntryVersion)
	u32(uint32(len(cm.Code)))
	for _, word := range cm.Code {
		u32(word)
	}
	flags := uint32(0)
	if cm.Meta.HasIndirectJump {
		flags |= 1
	}
	if cm.Meta.IsNative {
		flags |= 2
	}
	u32(flags)
	u32(uint32(len(cm.Meta.PCRel)))
	for _, r := range cm.Meta.PCRel {
		u32(uint32(r.InstOff))
		u32(uint32(r.TargetOff))
	}
	u32(uint32(len(cm.Meta.Terminators)))
	for _, t := range cm.Meta.Terminators {
		u32(uint32(t))
	}
	writeRanges := func(rs []a64.Range) {
		u32(uint32(len(rs)))
		for _, r := range rs {
			u32(uint32(r.Start))
			u32(uint32(r.End))
		}
	}
	writeRanges(cm.Meta.EmbeddedData)
	writeRanges(cm.Meta.Slowpaths)
	u32(uint32(len(cm.StackMap)))
	for _, s := range cm.StackMap {
		u32(uint32(s.NativeOff))
		u32(uint32(s.DexPC))
		u32(s.Live)
	}
	u32(uint32(len(cm.Ext)))
	for _, e := range cm.Ext {
		u32(uint32(e.InstOff))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Symbol))
	}
	return buf
}

// DecodeCachedMethod parses a cached payload into a fresh CompiledMethod
// bound to m. Any structural defect — wrong version, truncation, trailing
// bytes — is an error, never a panic; the caller recompiles.
func DecodeCachedMethod(m *dex.Method, payload []byte) (*CompiledMethod, error) {
	r := &entryReader{data: payload}
	if v := r.u32(); r.err == nil && v != cacheEntryVersion {
		return nil, fmt.Errorf("codegen: cache entry version %d, want %d", v, cacheEntryVersion)
	}
	cm := &CompiledMethod{M: m}
	// The code array is the bulk of every entry; decode it in one
	// bounds-checked block with an exact allocation instead of per-word
	// reader calls — this loop is the warm build's per-method hot path.
	if nc := int(r.u32()); r.err == nil && nc > 0 {
		if need := nc * 4; r.off+need <= len(payload) {
			cm.Code = make([]uint32, nc)
			for i := range cm.Code {
				cm.Code[i] = binary.LittleEndian.Uint32(payload[r.off+4*i:])
			}
			r.off += need
		} else {
			r.err = fmt.Errorf("codegen: cache entry truncated at offset %d", r.off)
		}
	}
	flags := r.u32()
	if r.err == nil && flags&^3 != 0 {
		// Unknown flag bits mean a newer writer; keeping the codec
		// strictly canonical also makes decode∘encode the identity.
		return nil, fmt.Errorf("codegen: unknown cache entry flags %#x", flags)
	}
	cm.Meta.HasIndirectJump = flags&1 != 0
	cm.Meta.IsNative = flags&2 != 0
	npc := r.u32()
	for i := uint32(0); i < npc && r.err == nil; i++ {
		cm.Meta.PCRel = append(cm.Meta.PCRel, a64.Reloc{InstOff: int(r.u32()), TargetOff: int(r.u32())})
	}
	nt := r.u32()
	for i := uint32(0); i < nt && r.err == nil; i++ {
		cm.Meta.Terminators = append(cm.Meta.Terminators, int(r.u32()))
	}
	readRanges := func() []a64.Range {
		n := r.u32()
		var rs []a64.Range
		for i := uint32(0); i < n && r.err == nil; i++ {
			rs = append(rs, a64.Range{Start: int(r.u32()), End: int(r.u32())})
		}
		return rs
	}
	cm.Meta.EmbeddedData = readRanges()
	cm.Meta.Slowpaths = readRanges()
	ns := r.u32()
	for i := uint32(0); i < ns && r.err == nil; i++ {
		cm.StackMap = append(cm.StackMap, StackMapEntry{
			NativeOff: int(r.u32()), DexPC: int32(r.u32()), Live: r.u32(),
		})
	}
	ne := r.u32()
	for i := uint32(0); i < ne && r.err == nil; i++ {
		cm.Ext = append(cm.Ext, a64.ExtRef{InstOff: int(r.u32()), Symbol: int(r.u64())})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("codegen: %d trailing bytes in cache entry", len(payload)-r.off)
	}
	return cm, nil
}

// entryReader is the bounds-checked little-endian reader the decoder
// uses; it records the first failure instead of panicking, mirroring the
// oat tables reader.
type entryReader struct {
	data []byte
	off  int
	err  error
}

func (r *entryReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.err = fmt.Errorf("codegen: cache entry truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *entryReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.err = fmt.Errorf("codegen: cache entry truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// compileCached is the CompileCtx path with the content-addressed cache in
// front of code generation: a hit decodes the stored artifact and skips
// IR construction and emission entirely; a miss compiles and populates.
// The per-build hit/miss/byte tallies are plain atomics — the pool's hot
// path takes no lock beyond the store's own RLock — and are forwarded to
// the tracer's counters after the batch so they land in the telemetry
// table.
func compileCached(ctx context.Context, app *dex.App, opts Options) ([]*CompiledMethod, error) {
	c := opts.Cache
	// hit[i] is written by the worker that ran task i and read by the
	// observer for task i on the same goroutine, immediately after fn
	// returns — no synchronization needed.
	hit := make([]bool, len(app.Methods))
	var hits, misses, served, stored atomic.Int64
	var observer par.TaskObserver
	if inner := opts.Tracer.PoolObserver("compile", func(i int) string {
		return app.Methods[i].FullName()
	}); inner != nil {
		observer = func(worker, index int, queueWait, run time.Duration) {
			// A cache hit did no code generation; keeping it off the
			// compile lanes is what makes "zero codegen spans on a fully
			// warm build" an assertable telemetry property.
			if hit[index] {
				return
			}
			inner(worker, index, queueWait, run)
		}
	}
	out, err := par.MapObsCtx(ctx, opts.Workers, len(app.Methods), observer, func(id int) (*CompiledMethod, error) {
		m := app.Methods[id]
		key := CacheKey(m, app.Methods, opts)
		if payload, ok := c.Get(key); ok {
			if cm, derr := DecodeCachedMethod(m, payload); derr == nil {
				hit[id] = true
				hits.Add(1)
				served.Add(int64(len(payload)))
				return cm, nil
			}
			// A frame-valid payload the codec rejects (entry version
			// skew) is a miss: recompile, and the Put below heals it.
		}
		misses.Add(1)
		cm, err := compileMethod(m, opts)
		if err != nil {
			return nil, fmt.Errorf("codegen: %s: %w", m.FullName(), err)
		}
		payload := EncodeCachedMethod(cm)
		stored.Add(int64(len(payload)))
		c.Put(key, payload)
		return cm, nil
	})
	if t := opts.Tracer; t != nil {
		t.Count("cache.hits", hits.Load())
		t.Count("cache.misses", misses.Load())
		t.Count("cache.bytes_served", served.Load())
		t.Count("cache.bytes_stored", stored.Load())
	}
	return out, err
}
