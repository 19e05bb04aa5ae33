package analysis_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/a64"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/workload"
)

// sameFindings fails the test unless the production analyzer and the
// reference frame model report identical finding lists for img.
func sameFindings(t *testing.T, what string, img *oat.Image) []analysis.Finding {
	t.Helper()
	got := analyze(t, img, 0).Findings
	want := analysis.ReferenceFindings(img)
	if slices.Equal(got, want) {
		return got
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i].String()
		}
		if i < len(want) {
			w = want[i].String()
		}
		if g != w {
			t.Fatalf("%s: finding %d differs (%d vs %d findings)\n  slot list: %s\n  reference: %s",
				what, i, len(got), len(want), g, w)
		}
	}
	t.Fatalf("%s: finding lists differ", what)
	return nil
}

// isFrameRule reports whether the finding comes from the dataflow pass's
// frame model rather than decoding or CFG recovery.
func isFrameRule(f analysis.Finding) bool {
	switch f.Rule {
	case analysis.RuleSPBalance, analysis.RuleCalleeSaved, analysis.RuleLinkReg:
		return true
	}
	return false
}

// TestDataflowMatchesReferenceLadder runs both frame models over every
// ladder app under every ladder configuration, then over seeded
// corruptions of those images aimed at the frame model: instruction
// stomps, damaged epilogues, and stray callee-saved writes and spills.
func TestDataflowMatchesReferenceLadder(t *testing.T) {
	const perImage = 10 // 6 apps x 4 configs x 10 = 240 corruptions
	mutated, frameHits := 0, 0
	for ai, prof := range workload.Apps(ladderScale()) {
		app, _, err := workload.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range ladderConfigs() {
			res, err := core.BuildCtx(t.Context(), app, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", prof.Name, c.name, err)
			}
			what := prof.Name + "/" + c.name
			sameFindings(t, what, res.Image)

			rng := rand.New(rand.NewSource(int64(1000*ai + ci)))
			for k := 0; k < perImage; k++ {
				kind, img := corrupt(rng, res.Image)
				fs := sameFindings(t, fmt.Sprintf("%s %s #%d", what, kind, k), img)
				mutated++
				if slices.ContainsFunc(fs, isFrameRule) {
					frameHits++
				}
			}
		}
	}
	t.Logf("%d corruptions, %d with frame-model findings", mutated, frameHits)
	if frameHits < mutated/4 {
		t.Errorf("only %d of %d corruptions reached the frame model", frameHits, mutated)
	}
}

// corrupt returns a copy of img with one frame-relevant defect, chosen
// and placed by rng, and the name of the defect kind.
func corrupt(rng *rand.Rand, img *oat.Image) (string, *oat.Image) {
	out := *img
	out.Text = slices.Clone(img.Text)
	type site struct {
		w    int // absolute text word index
		inst a64.Inst
	}
	var insts, restores []site
	for _, rec := range img.Methods {
		data := make(map[int]bool)
		for _, d := range rec.Meta.EmbeddedData {
			for off := d.Start; off < d.End; off += a64.WordSize {
				data[off] = true
			}
		}
		for off := 0; off < rec.Size; off += a64.WordSize {
			w := (rec.Offset + off) / a64.WordSize
			inst, ok := a64.Decode(img.Text[w])
			if data[off] || !ok {
				continue
			}
			insts = append(insts, site{w, inst})
			sp := inst.Rn == a64.SP
			switch {
			case sp && (inst.Op == a64.OpLdp || inst.Op == a64.OpLdrImm),
				sp && inst.Rd == a64.SP && inst.Op == a64.OpAddImm:
				restores = append(restores, site{w, inst})
			}
		}
	}
	for {
		var kind string
		var s site
		var repl a64.Inst
		switch rng.Intn(3) {
		case 0:
			// Stomp: overwrite an instruction with one copied from
			// elsewhere in the text.
			kind = "stomp"
			s = insts[rng.Intn(len(insts))]
			repl = insts[rng.Intn(len(insts))].inst
			if repl.Op.IsPCRel() {
				continue // displacements are relative to their own site
			}
		case 1:
			// Epilogue: move a restore's slot or frame release, or
			// restore into a different register.
			kind = "epilogue"
			if len(restores) == 0 {
				continue
			}
			s = restores[rng.Intn(len(restores))]
			repl = s.inst
			switch {
			case repl.Op == a64.OpAddImm:
				repl.Imm += int64(16 * (rng.Intn(3) - 1))
			case rng.Intn(2) == 0:
				repl.Imm += int64(8 * (rng.Intn(5) - 2))
			default:
				repl.Rd = a64.X19 + a64.Reg(rng.Intn(12))
			}
		default:
			// Callee-saved: clobber a callee-saved or link register, or
			// spill a register into a frame slot (64- or 32-bit).
			kind = "callee-saved"
			s = insts[rng.Intn(len(insts))]
			r := a64.X19 + a64.Reg(rng.Intn(12))
			if rng.Intn(2) == 0 {
				repl = a64.Inst{Op: a64.OpOrrReg, Rd: r, Rn: a64.XZR, Rm: a64.X0, Sf: true}
			} else {
				sf := rng.Intn(3) != 0
				scale := int64(4)
				if sf {
					scale = 8
				}
				repl = a64.Inst{Op: a64.OpStrImm, Rd: r, Rn: a64.SP, Imm: scale * int64(rng.Intn(8)), Sf: sf}
			}
		}
		if s.inst.Op.IsBranch() || s.inst.Op == a64.OpBrk {
			continue // keep the CFG and the metadata records intact
		}
		word, err := a64.Encode(repl)
		if err != nil || word == out.Text[s.w] {
			continue
		}
		out.Text[s.w] = word
		return kind, &out
	}
}

// asmMethod links a single hand-assembled method into an image, with the
// PC-relative records the metadata check expects.
func asmMethod(t *testing.T, insts []a64.Inst) *oat.Image {
	t.Helper()
	rec := oat.MethodRecord{ID: 0, Size: len(insts) * a64.WordSize}
	var text []uint32
	for i, inst := range insts {
		w, err := a64.Encode(inst)
		if err != nil {
			t.Fatal(err)
		}
		text = append(text, w)
		if inst.Op.IsPCRel() {
			off := i * a64.WordSize
			rec.Meta.PCRel = append(rec.Meta.PCRel, a64.Reloc{InstOff: off, TargetOff: off + int(inst.Imm)})
		}
	}
	return &oat.Image{Text: text, Methods: []oat.MethodRecord{rec}}
}

// TestDataflowSlotListEdges pins the slot-list cases a sorted-slice frame
// can get wrong and a map cannot: duplicate saves, kills, growth past the
// usual frame, one-sided merges, self-loops, and narrow stores.
func TestDataflowSlotListEdges(t *testing.T) {
	sp, zr := a64.SP, a64.XZR
	sub := func(imm int64) a64.Inst {
		return a64.Inst{Op: a64.OpSubImm, Rd: sp, Rn: sp, Imm: imm, Sf: true}
	}
	add := func(imm int64) a64.Inst {
		return a64.Inst{Op: a64.OpAddImm, Rd: sp, Rn: sp, Imm: imm, Sf: true}
	}
	str := func(r a64.Reg, off int64) a64.Inst {
		return a64.Inst{Op: a64.OpStrImm, Rd: r, Rn: sp, Imm: off, Sf: true}
	}
	ldr := func(r a64.Reg, off int64) a64.Inst {
		return a64.Inst{Op: a64.OpLdrImm, Rd: r, Rn: sp, Imm: off, Sf: true}
	}
	mov := func(r a64.Reg) a64.Inst {
		return a64.Inst{Op: a64.OpOrrReg, Rd: r, Rn: zr, Rm: a64.X0, Sf: true}
	}
	push := a64.Inst{Op: a64.OpStp, Rd: a64.X19, Rt2: a64.X20, Rn: sp, Imm: -16, Index: a64.IndexPre}
	pop := a64.Inst{Op: a64.OpLdp, Rd: a64.X19, Rt2: a64.X20, Rn: sp, Imm: 16, Index: a64.IndexPost}
	ret := a64.Inst{Op: a64.OpRet, Rn: a64.LR}
	notRestored := func(off int, regs string) string {
		return fmt.Sprintf("m0+%#x: error [callee-saved] callee-saved %s not restored to entry values on this path", off, regs)
	}

	// Sixteen live slots: x19..x30 once each, then x19..x22 again.
	var wide []a64.Inst
	wide = append(wide, sub(128))
	for r := a64.X19; r <= a64.LR; r++ {
		wide = append(wide, str(r, 8*int64(r-a64.X19)))
	}
	for r := a64.X19; r <= a64.X22; r++ {
		wide = append(wide, str(r, 96+8*int64(r-a64.X19)))
	}
	for r := a64.X19; r <= a64.FP; r++ {
		wide = append(wide, mov(r))
	}
	for r := a64.X19; r <= a64.X22; r++ {
		wide = append(wide, ldr(r, 96+8*int64(r-a64.X19))) // the second copies
	}
	for r := a64.X23; r <= a64.FP; r++ {
		if r != a64.X28 { // left dirty on purpose
			wide = append(wide, ldr(r, 8*int64(r-a64.X19)))
		}
	}
	wide = append(wide, add(128), ret)

	cases := []struct {
		name  string
		insts []a64.Inst
		want  []string
	}{
		{"one register saved at two offsets", []a64.Inst{
			sub(32), str(a64.X19, 0), str(a64.X19, 8), mov(a64.X19),
			str(a64.X0, 0),  // kills the first save only
			ldr(a64.X19, 8), // the second still restores x19
			add(32), ret,
		}, nil},
		{"restore from the killed one of two saves", []a64.Inst{
			sub(32), str(a64.X19, 0), str(a64.X19, 8), mov(a64.X19),
			str(a64.X0, 0), ldr(a64.X19, 0), add(32), ret,
		}, []string{notRestored(0x1c, "x19")}},
		{"slot overwritten by a dirty register", []a64.Inst{
			push, mov(a64.X19), str(a64.X19, 0), pop, ret,
		}, []string{notRestored(0x10, "x19")}},
		{"more than 12 live slots", wide, []string{notRestored(4*(len(wide)-1), "x28")}},
		{"merge drops a slot killed on one path only", []a64.Inst{
			push,
			{Op: a64.OpCbz, Rd: a64.X0, Imm: 8, Sf: true}, // skips the kill
			str(a64.X1, 8), // kills x20's save on the fall-through path
			mov(a64.X20), pop, ret,
		}, []string{notRestored(0x14, "x20")}},
		{"self-loop block", []a64.Inst{
			push,
			ldr(a64.X19, 0), mov(a64.X20), str(a64.X20, 8),
			{Op: a64.OpCbnz, Rd: a64.X0, Imm: -12, Sf: true}, // back to its own head
			pop, ret,
		}, []string{notRestored(0x18, "x20")}},
		{"32-bit str kills a slot", []a64.Inst{
			push,
			{Op: a64.OpStrImm, Rd: a64.X0, Rn: sp, Imm: 0},
			mov(a64.X19), pop, ret,
		}, []string{notRestored(0x10, "x19")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := asmMethod(t, c.insts)
			sameFindings(t, c.name, img)
			var got []string
			for _, f := range lint(t, img) {
				got = append(got, f.String())
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("findings:\n  got  %q\n  want %q", got, c.want)
			}
		})
	}
}

// FuzzDataflow mutates one method of a small linked image — XOR patches
// over up to 16 of its words plus one metadata edit — and requires the
// slot-list kernel and the reference frame model to report the same
// findings. XOR patches keep most words decodable, so the mutated method
// usually still reaches the dataflow pass.
func FuzzDataflow(f *testing.F) {
	app, _, err := workload.Generate(workload.Profile{
		Name: "fuzz", Seed: 11, Methods: 25,
		NativeFrac: 0.1, SwitchFrac: 0.1,
	})
	if err != nil {
		f.Fatal(err)
	}
	res, err := core.BuildCtx(f.Context(), app, core.CTOLTBO())
	if err != nil {
		f.Fatal(err)
	}
	base := res.Image
	f.Add(uint16(0), uint16(0), []byte{}, uint8(0), uint16(0))
	// Seeds that retarget the Rt field of early and late words (prologue
	// saves, epilogue restores) and that edit each kind of metadata.
	for m := uint16(0); m < 25; m += 3 {
		n := uint16(base.Methods[m].Size / a64.WordSize)
		f.Add(m, uint16(1), []byte{0x01, 0, 0, 0}, uint8(0), uint16(0))
		f.Add(m, n-3, []byte{0x02, 0, 0, 0, 0x00, 0x04, 0, 0}, uint8(m%6), m)
	}
	f.Fuzz(func(t *testing.T, m, at uint16, patch []byte, metaOp uint8, arg uint16) {
		img := *base
		img.Text = slices.Clone(base.Text)
		img.Methods = slices.Clone(base.Methods)
		rec := &img.Methods[int(m)%len(img.Methods)]
		n := rec.Size / a64.WordSize
		if n == 0 {
			return
		}
		for i := 0; i+4 <= len(patch) && i < 64; i += 4 {
			w := rec.Offset/a64.WordSize + (int(at)+i/4)%n
			img.Text[w] ^= binary.LittleEndian.Uint32(patch[i:])
		}
		meta := &rec.Meta
		meta.EmbeddedData = slices.Clone(meta.EmbeddedData)
		meta.PCRel = slices.Clone(meta.PCRel)
		rec.StackMap = slices.Clone(rec.StackMap)
		switch metaOp % 6 {
		case 1:
			if len(meta.EmbeddedData) > 0 {
				i := int(arg) % len(meta.EmbeddedData)
				meta.EmbeddedData = slices.Delete(meta.EmbeddedData, i, i+1)
			}
		case 2:
			start := a64.WordSize * (int(arg) % n)
			meta.EmbeddedData = append(meta.EmbeddedData, a64.Range{Start: start, End: start + 2*a64.WordSize})
		case 3:
			if len(meta.PCRel) > 0 {
				meta.PCRel[int(arg)%len(meta.PCRel)].TargetOff += a64.WordSize
			}
		case 4:
			if len(rec.StackMap) > 0 {
				i := int(arg) % len(rec.StackMap)
				rec.StackMap = slices.Delete(rec.StackMap, i, i+1)
			}
		case 5:
			meta.HasIndirectJump = !meta.HasIndirectJump
		}
		sameFindings(t, "mutated image", &img)
	})
}
