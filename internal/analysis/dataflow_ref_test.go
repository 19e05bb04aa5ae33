package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/a64"
	"repro/internal/oat"
)

// This file keeps the original map-based frame model of the dataflow pass
// as a test-only reference. The production kernel (dataflow.go) tracks
// frame saves as an offset-sorted slot list; the differential tests run
// both models over the same images and require identical findings.

// refState is the reference abstract state: the frame is a map from
// entry-relative sp offsets to the register saved there.
type refState struct {
	sp    int64
	dirty uint32
	slots map[int64]a64.Reg
}

func newRefEntryState() *refState {
	return &refState{slots: map[int64]a64.Reg{}}
}

func (s *refState) clone() *refState {
	c := &refState{sp: s.sp, dirty: s.dirty, slots: make(map[int64]a64.Reg, len(s.slots))}
	for k, v := range s.slots {
		c.slots[k] = v
	}
	return c
}

func (s *refState) mergeInto(dst *refState) (changed, spConflict bool) {
	if dst.sp != s.sp {
		if dst.sp != spUnknown {
			spConflict = dst.sp != s.sp && s.sp != spUnknown
			if s.sp == spUnknown || spConflict {
				dst.sp = spUnknown
				changed = true
			}
		}
	}
	if d := dst.dirty | s.dirty; d != dst.dirty {
		dst.dirty = d
		changed = true
	}
	for k, v := range dst.slots {
		if s.slots[k] != v {
			delete(dst.slots, k)
			changed = true
		}
	}
	return changed, spConflict
}

func (s *refState) markDirty(r a64.Reg) {
	if r < 31 {
		s.dirty |= 1 << r
	}
}

func (s *refState) isClean(r a64.Reg) bool { return r < 31 && s.dirty&(1<<r) == 0 }

func (s *refState) store(addr int64, reg a64.Reg) {
	if reg < 31 && s.isClean(reg) && (calleeSavedMask|1<<a64.LR)&(1<<reg) != 0 {
		s.slots[addr] = reg
	} else {
		delete(s.slots, addr)
	}
}

func (s *refState) load(addr int64, reg a64.Reg) {
	if reg >= 31 {
		return
	}
	if saved, ok := s.slots[addr]; ok && saved == reg {
		s.dirty &^= 1 << reg
		return
	}
	s.markDirty(reg)
}

func (s *refState) clobberCall() {
	s.dirty |= callerSavedMask | 1<<a64.LR
}

// refTransfer is transfer over the reference state.
func (mc *methodCtx) refTransfer(s *refState, off int, inst a64.Inst) bool {
	isSP := func(r a64.Reg) bool { return r == 31 }
	switch inst.Op {
	case a64.OpAddImm, a64.OpSubImm:
		imm := inst.Imm
		if inst.Shift12 {
			imm <<= 12
		}
		if inst.Op == a64.OpSubImm {
			imm = -imm
		}
		switch {
		case isSP(inst.Rd) && isSP(inst.Rn):
			if s.sp != spUnknown {
				s.sp += imm
			}
		case isSP(inst.Rd):
			mc.errf(off, RuleSPBalance, "sp written from x%d; stack depth untrackable", inst.Rn)
			s.sp = spUnknown
			return false
		default:
			s.markDirty(inst.Rd)
		}

	case a64.OpAddsImm, a64.OpSubsImm,
		a64.OpAddReg, a64.OpAddsReg, a64.OpSubReg, a64.OpSubsReg,
		a64.OpAndReg, a64.OpOrrReg, a64.OpEorReg,
		a64.OpMul, a64.OpLslReg, a64.OpLsrReg,
		a64.OpMovz, a64.OpMovn, a64.OpMovk,
		a64.OpAdr, a64.OpAdrp, a64.OpLdrLit, a64.OpLdrReg:
		s.markDirty(inst.Rd)

	case a64.OpLdrImm:
		if isSP(inst.Rn) && inst.Sf && s.sp != spUnknown {
			s.load(s.sp+inst.Imm, inst.Rd)
		} else {
			s.markDirty(inst.Rd)
		}

	case a64.OpStrImm:
		if isSP(inst.Rn) && s.sp != spUnknown {
			if inst.Sf {
				s.store(s.sp+inst.Imm, inst.Rd)
			} else {
				delete(s.slots, s.sp+inst.Imm)
			}
		}

	case a64.OpStrReg:

	case a64.OpLdp, a64.OpStp:
		if !isSP(inst.Rn) {
			if inst.Op == a64.OpLdp {
				s.markDirty(inst.Rd)
				s.markDirty(inst.Rt2)
			} else if inst.Index != a64.IndexOffset {
				s.markDirty(inst.Rn)
			}
			break
		}
		if s.sp == spUnknown {
			s.markDirty(inst.Rd)
			s.markDirty(inst.Rt2)
			break
		}
		base := s.sp
		if inst.Index == a64.IndexPre {
			s.sp += inst.Imm
			base = s.sp
		} else if inst.Index == a64.IndexOffset {
			base += inst.Imm
		}
		if inst.Op == a64.OpStp {
			s.store(base, inst.Rd)
			s.store(base+8, inst.Rt2)
		} else {
			s.load(base, inst.Rd)
			s.load(base+8, inst.Rt2)
		}
		if inst.Index == a64.IndexPost {
			s.sp += inst.Imm
		}

	case a64.OpBl:
		s.markDirty(a64.LR)
		abs := mc.r.off + off + int(inst.Imm)
		if info, ok := mc.l.blobs[abs]; ok && info.ok {
			for _, bi := range info.insts[:len(info.insts)-1] {
				mc.refTransfer(s, off, bi)
			}
		} else {
			s.clobberCall()
		}

	case a64.OpBlr:
		s.clobberCall()

	case a64.OpRet:
		if s.sp != 0 && s.sp != spUnknown {
			mc.errf(off, RuleSPBalance,
				"ret with sp adjusted by %+d bytes: the entry frame is not released", s.sp)
		}
		if !s.isClean(inst.Rn) {
			mc.errf(off, RuleLinkReg, "ret through x%d, which no longer holds the return address", inst.Rn)
		}
		if bad := s.dirty & calleeSavedMask; bad != 0 {
			mc.errf(off, RuleCalleeSaved,
				"callee-saved %s not restored to entry values on this path", regList(bad))
		}
	}
	return true
}

// refRunDataflow is runDataflow over the reference state: one map clone
// per block visit and per first successor, FIFO order, same step bound.
func (mc *methodCtx) refRunDataflow() {
	if !mc.sound || mc.cfg == nil || len(mc.cfg.Blocks) == 0 {
		return
	}
	mc.checkStackProbe()

	n := len(mc.cfg.Blocks)
	in := make([]*refState, n)
	in[0] = newRefEntryState()
	spReported := make([]bool, n)
	work := []int{0}
	queued := make([]bool, n)
	queued[0] = true
	steps := 0
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		queued[bi] = false
		if steps++; steps > 4*n+64 {
			return
		}
		st := in[bi].clone()
		b := mc.cfg.Blocks[bi]
		okPath := true
		for w := b.Start / a64.WordSize; w < b.End/a64.WordSize; w++ {
			if !mc.refTransfer(st, w*a64.WordSize, mc.insts[w]) {
				okPath = false
				break
			}
		}
		if !okPath {
			continue
		}
		for _, succ := range b.Succs {
			if in[succ] == nil {
				in[succ] = st.clone()
				if !queued[succ] {
					work = append(work, succ)
					queued[succ] = true
				}
				continue
			}
			changed, conflict := st.mergeInto(in[succ])
			if conflict && !spReported[succ] {
				spReported[succ] = true
				mc.errf(mc.cfg.Blocks[succ].Start, RuleSPBalance,
					"paths reach this block with different sp adjustments")
			}
			if changed && !queued[succ] {
				work = append(work, succ)
				queued[succ] = true
			}
		}
	}
}

// ReferenceFindings is AnalyzeCtx(img).Findings computed serially with the
// reference frame model in place of the production dataflow kernel.
func ReferenceFindings(img *oat.Image) []Finding {
	var fs findings
	l := buildLayout(img, &fs)
	for _, r := range l.regions {
		switch r.kind {
		case regionThunk:
			l.checkThunk(r, &fs)
		case regionBlob:
			l.checkBlob(r, &fs)
		}
	}
	for _, r := range l.regions {
		if r.kind != regionMethod {
			continue
		}
		mc := newMethodCtx(l, r, &fs)
		mc.checkMetadata()
		mc.recoverCFG()
		mc.refRunDataflow()
	}
	sortFindings(fs.list)
	return fs.list
}

// TestSlotListMatchesMap drives the two frame models through the same
// random store/kill/load/merge/sp sequences, on a small offset range so
// saves collide, and compares the abstract states after every step.
func TestSlotListMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	regs := []a64.Reg{a64.X0, a64.X19, a64.X20, a64.X21, a64.X28, a64.FP, a64.LR}
	equal := func(s *absState, r *refState) bool {
		if s.sp != r.sp || s.dirty != r.dirty || len(s.slots) != len(r.slots) {
			return false
		}
		for i, sl := range s.slots {
			if i > 0 && s.slots[i-1].off >= sl.off {
				return false // not strictly ascending
			}
			if reg, ok := r.slots[sl.off]; !ok || reg != sl.reg {
				return false
			}
		}
		return true
	}
	for seq := 0; seq < 500; seq++ {
		var s, other absState
		r, rOther := newRefEntryState(), newRefEntryState()
		for step := 0; step < 40; step++ {
			off := int64(rng.Intn(24)) * 8
			reg := regs[rng.Intn(len(regs))]
			switch rng.Intn(7) {
			case 0, 1:
				s.store(off, reg)
				r.store(off, reg)
			case 2:
				s.kill(off)
				delete(r.slots, off)
			case 3:
				s.load(off, reg)
				r.load(off, reg)
			case 4:
				s.markDirty(reg)
				r.markDirty(reg)
			case 5:
				// Merge the running state into a second one that took a
				// different recent history, as a join block would.
				gotC, gotX := s.mergeInto(&other)
				wantC, wantX := r.mergeInto(rOther)
				if gotC != wantC || gotX != wantX {
					t.Fatalf("seq %d step %d: merge reports (%v,%v), reference (%v,%v)", seq, step, gotC, gotX, wantC, wantX)
				}
				if !equal(&other, rOther) {
					t.Fatalf("seq %d step %d: merged state %+v, reference %+v", seq, step, other, *rOther)
				}
				other.copyFrom(&s)
				rOther = r.clone()
			case 6:
				d := int64(rng.Intn(3)-1) * 16
				if rng.Intn(8) == 0 {
					s.sp, r.sp = spUnknown, spUnknown
				} else if s.sp != spUnknown {
					s.sp += d
					r.sp += d
				}
			}
			if !equal(&s, r) {
				t.Fatalf("seq %d step %d: state %+v, reference %+v", seq, step, s, *r)
			}
		}
	}
}
