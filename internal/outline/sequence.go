package outline

import (
	"context"
	"sort"
	"time"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/par"
	"repro/internal/suffixarray"
)

// methodSeq is one unit of detector input: a compiled method plus its
// hot-filtering state. Its words are the method's code; its mask marks
// the positions no repeat may include.
type methodSeq struct {
	cm  *codegen.CompiledMethod
	hot bool
}

func (m methodSeq) Words() []uint32 { return m.cm.Code }
func (m methodSeq) Mask() []bool    { return separatorWords(m.cm, m.hot) }

// position maps one sequence index back to a unit word.
type position struct {
	method int32 // index into the units slice; -1 for separators
	word   int32 // word index within the unit's words
}

// separatorWords computes, for one method, which word positions may not
// take part in any repeat. The compile-time metadata (§3.2) makes this
// exact — no disassembly heuristics:
//
//   - embedded data (literal pools, jump tables);
//   - control-transfer instructions (terminators and calls): an outlined
//     body must be single-entry-single-exit straight-line code, and a bl
//     inside it would clobber the x30 the outlined function returns with;
//   - PC-relative instructions and, crucially, their *targets*: an
//     instruction that is a branch target must survive the rewrite at an
//     addressable offset;
//   - unresolved call sites (bl bound at link time);
//   - everything outside slow paths when the method is hot (§3.4.2);
//   - any instruction reading or writing the link register;
//   - any word that does not decode (defense in depth; with LTBO.1
//     metadata this only triggers for data already excluded).
func separatorWords(cm *codegen.CompiledMethod, hot bool) []bool {
	n := len(cm.Code)
	sep := make([]bool, n)
	markByte := func(off int) {
		if off%a64.WordSize == 0 && off/a64.WordSize < n {
			sep[off/a64.WordSize] = true
		}
	}
	for _, t := range cm.Meta.Terminators {
		markByte(t)
	}
	for _, r := range cm.Meta.PCRel {
		markByte(r.InstOff)
		markByte(r.TargetOff)
	}
	for _, e := range cm.Ext {
		markByte(e.InstOff)
	}
	for _, d := range cm.Meta.EmbeddedData {
		for off := d.Start; off < d.End; off += a64.WordSize {
			markByte(off)
		}
	}
	if hot {
		inSlow := make([]bool, n)
		for _, s := range cm.Meta.Slowpaths {
			for off := s.Start; off < s.End; off += a64.WordSize {
				if off/a64.WordSize < n {
					inSlow[off/a64.WordSize] = true
				}
			}
		}
		for w := 0; w < n; w++ {
			if !inSlow[w] {
				sep[w] = true
			}
		}
	}
	for w := 0; w < n; w++ {
		if sep[w] {
			continue
		}
		inst, ok := a64.Decode(cm.Code[w])
		if !ok || usesLR(inst) {
			sep[w] = true
		}
	}
	return sep
}

// usesLR reports whether any register field of the instruction names x30.
// Over-approximate: fields unused by the op are zero and never 30.
func usesLR(i a64.Inst) bool {
	return i.Rd == a64.LR || i.Rn == a64.LR || i.Rm == a64.LR || i.Rt2 == a64.LR
}

// symbolizer interns instruction words into dense symbols and mints unique
// separator symbols from the same counter, so the two can never collide.
type symbolizer struct {
	dict map[uint32]uint32
	rev  []uint32 // symbol -> original word (separators hold 0)
	next uint32
}

// newSymbolizer returns a symbolizer sized for a sequence of sizeHint
// symbols (the rev table gets one entry per distinct word or separator).
func newSymbolizer(sizeHint int) *symbolizer {
	return &symbolizer{
		dict: make(map[uint32]uint32, 256),
		rev:  make([]uint32, 0, sizeHint),
	}
}

func (s *symbolizer) word(w uint32) uint32 {
	if id, ok := s.dict[w]; ok {
		return id
	}
	id := s.next
	s.next++
	s.dict[w] = id
	s.rev = append(s.rev, w)
	return id
}

func (s *symbolizer) separator() uint32 {
	id := s.next
	s.next++
	s.rev = append(s.rev, 0)
	return id
}

// wordsOf translates a symbol label back to instruction words.
func (s *symbolizer) wordsOf(label []uint32) []uint32 {
	out := make([]uint32, len(label))
	for i, id := range label {
		out[i] = s.rev[id]
	}
	return out
}

// buildSequence symbolizes a group of units into one sequence. The
// per-unit mask scans (metadata walks plus a decode of every word) are
// independent and fan out on the worker pool; the symbol interning that
// follows is inherently sequential — symbol identity depends on
// first-seen order — and stays a serial walk in group order, so the
// sequence is identical for every worker count.
//
// The two phases are timed into st (SepScan, Symbolize) rather than
// traced as spans: this pool is nested inside a group task that already
// owns a worker lane, and spans from a nested pool would interleave with
// the outer tasks on the same lanes. The per-group instant event carries
// these durations instead. The mask pool checks ctx before every unit; a
// cancelled context yields ctx.Err() and no sequence.
func buildSequence(ctx context.Context, units []methodSeq, group []int, opts Options, st *Stats) ([]uint32, []position, error) {
	t0 := time.Now()
	seps, err := par.MapCtx(ctx, opts.Workers, len(group), func(i int) ([]bool, error) {
		return units[group[i]].Mask(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	st.SepScan = time.Since(t0)
	t1 := time.Now()
	defer func() { st.Symbolize = time.Since(t1) }()
	// One word per code word plus one separator per unit: exact sizes,
	// so the serial symbolize walk never reallocates.
	total := len(group)
	for _, mi := range group {
		total += len(units[mi].Words())
	}
	sym := newSymbolizer(total)
	seq := make([]uint32, 0, total)
	pos := make([]position, 0, total)
	for gi, mi := range group {
		sep := seps[gi]
		for w, word := range units[mi].Words() {
			if sep[w] {
				seq = append(seq, sym.separator())
				pos = append(pos, position{method: -1})
			} else {
				seq = append(seq, sym.word(word))
				pos = append(pos, position{method: int32(mi), word: int32(w)})
			}
		}
		// Method boundary.
		seq = append(seq, sym.separator())
		pos = append(pos, position{method: -1})
	}
	return seq, pos, nil
}

// detectRepeats builds the suffix array over seq and enumerates its
// repeats, timing the two phases into st.
func detectRepeats(seq []uint32, opts Options, st *Stats) []suffixarray.Repeat {
	t0 := time.Now()
	arr := suffixarray.Build(seq)
	st.TreeBuild = time.Since(t0)
	t1 := time.Now()
	repeats := arr.Repeats(opts.MinLength, 2)
	st.Detect = time.Since(t1)
	return repeats
}

// Benefit evaluates the paper's Figure 2 model: the instruction-count
// saving from outlining a repeat of the given length occurring count times
// (the +1 is the outlined function's return instruction).
func Benefit(length, count int) int {
	return length*count - (count + 1 + length)
}

// rank is what greedy selection orders candidates by.
type rank struct{ length, count, ord int }

func rankOf(r suffixarray.Repeat) rank { return rank{r.Length, r.Count, r.Ord} }

// before reports whether a is tried before b: by Figure 2 benefit, longest
// first among ties, then by ordinal — which among equal lengths is the
// paper's suffix-tree node order (suffixarray.Repeat.Ord).
func (a rank) before(b rank) bool {
	if ba, bb := Benefit(a.length, a.count), Benefit(b.length, b.count); ba != bb {
		return ba > bb
	}
	if a.length != b.length {
		return a.length > b.length
	}
	return a.ord < b.ord
}

// outlineGroup runs detection and selection over one unit group and
// returns the functions to create (with their chosen occurrences).
//
// Two detection routes share this entry: the paper's global structure
// (one sequence, one suffix array, selection in sequence coordinates) and
// the sharded route of shard.go (DetectShards >= 2), which partitions the
// group's sequence construction and detection and then selects globally
// in unit coordinates. With one shard the two routes are byte-identical — the
// property shard_test.go pins — which is what makes DetectShards a tunable
// rather than a fork.
func outlineGroup(ctx context.Context, units []methodSeq, group []int, opts Options) ([]outlinedFunc, Stats, error) {
	if opts.DetectShards > 1 || opts.forceSharded {
		return outlineGroupSharded(ctx, units, group, opts)
	}
	var st Stats
	seq, pos, err := buildSequence(ctx, units, group, opts, &st)
	if err != nil {
		return nil, st, err
	}
	st.SequenceSymbols = len(seq)
	if len(seq) == 0 {
		return nil, st, nil
	}

	repeats := detectRepeats(seq, opts, &st)
	t1 := time.Now()
	sort.Slice(repeats, func(a, b int) bool { return rankOf(repeats[a]).before(rankOf(repeats[b])) })

	taken := make([]bool, len(seq))
	var funcs []outlinedFunc
	for _, rep := range repeats {
		if Benefit(rep.Length, rep.Count) < opts.MinBenefit {
			break // sorted by benefit: nothing below can qualify either
		}
		occs := rep.Occurrences()
		sort.Ints(occs)
		var chosen []int
		lastEnd := -1
		for _, o := range occs {
			if o < lastEnd {
				continue // overlaps previous occurrence of this repeat
			}
			free := true
			for p := o; p < o+rep.Length; p++ {
				if taken[p] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			chosen = append(chosen, o)
			lastEnd = o + rep.Length
		}
		if len(chosen) < 2 || Benefit(rep.Length, len(chosen)) < opts.MinBenefit {
			continue
		}
		f := outlinedFunc{}
		first := chosen[0]
		for p := first; p < first+rep.Length; p++ {
			f.words = append(f.words, units[pos[p].method].Words()[pos[p].word])
		}
		for _, o := range chosen {
			for p := o; p < o+rep.Length; p++ {
				taken[p] = true
			}
			f.occurrences = append(f.occurrences, occurrence{
				method:  int(pos[o].method),
				wordOff: int(pos[o].word),
			})
		}
		funcs = append(funcs, f)
	}
	st.Detect += time.Since(t1)
	return funcs, st, nil
}
