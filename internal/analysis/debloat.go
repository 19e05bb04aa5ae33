package analysis

import (
	"context"
	"fmt"

	"repro/internal/a64"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/obs"
)

// DebloatCtx is the reachability-driven rewrite pass: it takes an existing
// linked image — not a compile — and emits a smaller one with every
// provably-dead method body, orphaned outlined function, and unreferenced
// thunk removed.
//
// The safety argument has three legs:
//
//  1. Admission: an image with any error-severity lint finding is
//     refused. On an admitted image every bl lands on a region head
//     (the call-target rule), which is what makes relocation patching
//     total rather than heuristic.
//  2. Conservatism: removal is driven by Reachable, whose dead
//     classification is "provably dead" — any unresolved edge keeps the
//     whole image live, so the worst failure mode is removing nothing.
//  3. Re-verification: the emitted image is run through oat.Validate and
//     the full lint; a warning or error fails the debloat instead of
//     shipping a corrupt image.
//
// Method records are never deleted or renumbered — the method table is
// indexed by dex.MethodID, and every materialized ArtMethod address in
// live code encodes an ID. A dead method keeps its table slot as a
// zero-size stub record at the end of the text segment.
//
// Only bl sites need relocation patching: every other PC-relative
// instruction is intra-method (the branch-target and literal rules
// enforce this) and moves with its method, and thunk/blob bodies contain
// no PC-relative code at all. The rebuild preserves region order, so
// debloating an already-debloated image is the identity — the idempotence
// the tests pin.

// DebloatStats reports what a debloat removed.
type DebloatStats struct {
	MethodsTotal   int // method records in the table
	MethodsRemoved int // bodies replaced by zero-size stubs this pass
	BlobsTotal     int
	BlobsRemoved   int
	ThunksTotal    int
	ThunksRemoved  int
	TextBefore     int // bytes
	TextAfter      int // bytes
	Imprecise      bool
	// DeadMethods lists the IDs stubbed out this pass, ascending.
	DeadMethods []dex.MethodID
}

// DebloatCtx rewrites an image keeping only code reachable from roots.
// The analysis fans out on workers goroutines (<= 0 selects GOMAXPROCS)
// and the output image is byte-identical for every width; the tracer,
// when non-nil, records the analysis telemetry. A cancelled or
// deadline-expired ctx stops the pass and returns ctx.Err().
func DebloatCtx(ctx context.Context, img *oat.Image, roots RootSet, workers int, tracer *obs.Tracer) (*oat.Image, *DebloatStats, error) {
	if len(roots.Methods) == 0 && !roots.NoCallers {
		roots = DefaultRoots()
	}

	// Admission: the full per-method verification, plus the call-graph
	// walk's own error findings (a call into a removed range).
	rep, lay, err := analyzeImage(ctx, img, workers, tracer)
	if err != nil {
		return nil, nil, err
	}
	sortFindings(rep.Findings)
	for _, f := range rep.Findings {
		if f.Severity == SevError {
			return nil, nil, fmt.Errorf("analysis: refusing to debloat an unsound image: %s", f)
		}
	}
	var cgfs findings
	cg, err := buildCallGraphFrom(ctx, lay, workers, &cgfs)
	if err != nil {
		return nil, nil, err
	}
	sortFindings(cgfs.list)
	for _, f := range cgfs.list {
		if f.Severity == SevError {
			return nil, nil, fmt.Errorf("analysis: refusing to debloat an unsound image: %s", f)
		}
	}

	reach := cg.Reachable(roots)
	stats := &DebloatStats{
		MethodsTotal: len(img.Methods),
		BlobsTotal:   len(img.Outlined),
		ThunksTotal:  len(img.Thunks),
		TextBefore:   img.TextBytes(),
		Imprecise:    reach.Imprecise,
	}

	// Rebuild the text segment in original region order, keeping live
	// regions. Order preservation is what makes the pass idempotent.
	out := &oat.Image{}
	newOff := map[int]int{} // old region offset -> new offset
	keepRegion := func(r region) bool {
		switch r.kind {
		case regionThunk:
			return reach.LiveThunks[r.sym]
		case regionBlob:
			bi, ok := cg.blobIndexOf(r.sym)
			return ok && reach.LiveBlobs[bi]
		default:
			return r.size > 0 && reach.LiveMethods[r.method]
		}
	}
	for _, r := range lay.regions {
		if !keepRegion(r) {
			continue
		}
		newOff[r.off] = len(out.Text) * a64.WordSize
		out.Text = append(out.Text, lay.words(r)...)
	}

	for _, f := range img.Thunks {
		if reach.LiveThunks[f.Sym] {
			out.Thunks = append(out.Thunks, oat.FuncRecord{Sym: f.Sym, Offset: newOff[f.Offset], Size: f.Size})
		} else {
			stats.ThunksRemoved++
		}
	}
	for i, f := range img.Outlined {
		if reach.LiveBlobs[i] {
			out.Outlined = append(out.Outlined, oat.FuncRecord{Sym: f.Sym, Offset: newOff[f.Offset], Size: f.Size})
		} else {
			stats.BlobsRemoved++
		}
	}
	end := out.TextBytes()
	out.Methods = make([]oat.MethodRecord, len(img.Methods))
	for i, m := range img.Methods {
		if reach.LiveMethods[i] {
			out.Methods[i] = oat.MethodRecord{
				ID: m.ID, Offset: newOff[m.Offset], Size: m.Size,
				Meta: m.Meta, StackMap: m.StackMap,
			}
			continue
		}
		// Stub: the slot survives (ArtMethod addressing depends on it),
		// the body does not. Already-stubbed records are not re-counted.
		out.Methods[i] = oat.MethodRecord{ID: m.ID, Offset: end, Size: 0}
		if m.Size > 0 {
			stats.MethodsRemoved++
			stats.DeadMethods = append(stats.DeadMethods, m.ID)
		}
	}

	// Patch every live method's bl sites: the only relocations that cross
	// region boundaries. Admission guarantees each target is a live
	// region head, so the new-offset lookup is total.
	for i, m := range img.Methods {
		if !reach.LiveMethods[i] {
			continue
		}
		data := make([]bool, m.Size/a64.WordSize)
		for _, d := range m.Meta.EmbeddedData {
			for w := d.Start / a64.WordSize; w < d.End/a64.WordSize; w++ {
				data[w] = true
			}
		}
		no := out.Methods[i].Offset
		for w := 0; w < m.Size/a64.WordSize; w++ {
			if data[w] {
				continue
			}
			word := img.Text[m.Offset/a64.WordSize+w]
			inst, ok := a64.Decode(word)
			if !ok || inst.Op != a64.OpBl {
				continue
			}
			oldAbs := m.Offset + w*a64.WordSize + int(inst.Imm)
			nt, ok := newOff[oldAbs]
			if !ok {
				return nil, nil, fmt.Errorf("analysis: debloat internal error: live m%d calls removed region +%#x", m.ID, oldAbs)
			}
			patched, err := a64.PatchRel(word, int64(nt-(no+w*a64.WordSize)))
			if err != nil {
				return nil, nil, fmt.Errorf("analysis: debloat repatching m%d+%#x: %w", m.ID, w*a64.WordSize, err)
			}
			out.Text[no/a64.WordSize+w] = patched
		}
	}

	stats.TextAfter = out.TextBytes()

	// Re-verification: the emitted image must pass the loader checks and
	// the full lint, or the debloat fails instead of shipping it.
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("analysis: debloat produced an invalid image: %w", err)
	}
	lint, err := LintCtx(ctx, out, workers, tracer)
	if err != nil {
		return nil, nil, err
	}
	if len(lint) > 0 {
		return nil, nil, fmt.Errorf("analysis: debloat produced a lintable image: %s", lint[0])
	}
	if tracer != nil {
		tracer.Count("debloat.methods_removed", int64(stats.MethodsRemoved))
		tracer.Count("debloat.bytes_removed", int64(stats.TextBefore-stats.TextAfter))
	}
	return out, stats, nil
}
