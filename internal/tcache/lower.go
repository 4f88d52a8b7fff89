package tcache

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
)

// Handler selects the executor's code for one lowered instruction. It is
// chosen once, at install, from the instruction's kind and the kinds of
// its source operands (DESIGN.md §18).
type Handler uint8

// The handler set. HInvalid is the zero value, so a zero Op never runs.
const (
	// HInvalid fails: the instruction has no lowered form (an unknown
	// kind, an operation that does not fit Fn, or a register or
	// accumulator out of range).
	HInvalid Handler = iota
	// HEnd is the sentinel after a fragment's last instruction: control
	// fell off the end.
	HEnd
	// HNop does nothing (set-VPC, dispatch body).
	HNop
	// HALU: Fn(slot X, slot Y); HALUImmA: Fn(Imm, slot Y); HALUImmB:
	// Fn(slot X, Imm). The result goes to accumulator slot W and
	// register slot D.
	HALU
	HALUImmA
	HALUImmB
	// HMove copies slot X plus Imm to W and D: copies, load-ETA,
	// save-VRA, and ALU operations on two immediates (folded at install).
	HMove
	// HLoad loads Fn's width from slot X plus Imm into W and D.
	HLoad
	// HStore stores slot Y to slot X plus Imm; HStoreImm stores Imm to
	// slot X plus the 16-bit displacement in Aux.
	HStore
	HStoreImm
	// HCMOV writes slot Y plus Imm to register slot D when Fn's
	// condition holds on slot X.
	HCMOV
	// HPushRAS pushes (Imm, return-target fragment) on the dual-address
	// RAS; the fragment ID is cached in Aux.
	HPushRAS
	// HCondBranch takes the branch when Fn's condition holds on slot X
	// plus Imm; HSWPred is the same branch as the software jump
	// prediction's compare into the dispatch routine, which also counts
	// the prediction verdict.
	HCondBranch
	HSWPred
	// HBranch always takes the branch.
	HBranch
	// HJumpRet is the dual-address-RAS return on target slot X plus Imm.
	HJumpRet
	// HJumpInd is the dispatch routine's final indirect jump.
	HJumpInd
)

// Operand slots. A slot indexes the executor's 128-entry operand file:
// 0-31 are R0-R31 and 32-63 the VM-private scratch GPRs (a GPR's slot is
// its register number), followed by the accumulators and two fixed
// entries, a zero that is never written and a discard entry that
// absorbs writes nothing reads. R31 reads become SlotZero and R31
// writes become SlotDiscard, so the executor tests neither.
const (
	SlotAcc     uint8 = 2 << 5       // accumulator a is SlotAcc + a
	SlotZero    uint8 = SlotAcc + 30 // reads as zero
	SlotDiscard uint8 = SlotAcc + 31 // absorbs discarded writes
)

// Op is one lowered I-instruction: 16 bytes, with the operand modes and
// registers resolved, so executing it needs no decisions that are fixed
// per instruction. The lowered code is a pure function of the
// fragment's instructions (Lower); Fragment.Code holds it one Op per
// instruction plus a trailing HEnd.
type Op struct {
	// Imm is the immediate operand: an ALU immediate, a load or store
	// displacement (plus an immediate address), an embedded V-ISA
	// address, or a constant added to the single source slot X.
	Imm uint64
	// Aux is, for value-producing ops, the register slot written
	// (bits 0-7) and the accumulator slot written (bits 8-15); for loads,
	// stores and control transfers, bits 16-31 hold the PEI-table or
	// control-transfer ordinal; HStoreImm keeps its displacement in bits
	// 0-15, and HPushRAS its cached return-target fragment ID in all 32.
	Aux uint32
	H   Handler
	// Fn is the Alpha operation: the ALU function, the branch or CMOV
	// condition, or the memory width.
	Fn uint8
	// X and Y are the source slots.
	X, Y uint8
}

// D returns the register slot a value-producing op writes.
func (o *Op) D() uint8 { return uint8(o.Aux) }

// W returns the accumulator slot a value-producing op writes.
func (o *Op) W() uint8 { return uint8(o.Aux >> 8) }

// Ord returns a load or store's PEI-table ordinal (the number of PEI
// points before it), or a control transfer's ordinal among the
// fragment's control transfers.
func (o *Op) Ord() int { return int(o.Aux >> 16) }

// Disp16 returns HStoreImm's displacement.
func (o *Op) Disp16() uint64 { return uint64(int64(int16(o.Aux))) }

func (o *Op) link() int32     { return int32(o.Aux) }
func (o *Op) setLink(f int32) { o.Aux = uint32(f) }

// Lower lowers an instruction stream: one Op per instruction and a
// trailing HEnd.
func Lower(insts []ildp.Inst) []Op {
	code := make([]Op, len(insts)+1)
	pei, exit := 0, 0
	for i := range insts {
		inst := &insts[i]
		code[i] = lower(inst, ordinal(inst, pei, exit))
		if isPEIPoint(inst) {
			pei++
		}
		if inst.IsControl() {
			exit++
		}
	}
	code[len(insts)] = Op{H: HEnd}
	return code
}

// relower re-lowers instruction i after a change to it, in place, so an
// executor running the fragment sees the change. The ordinals count
// instructions before i, so they stand unless the change moved i in or
// out of the PEI points or the control transfers; then the whole
// fragment is lowered again.
func (f *Fragment) relower(i int, old *ildp.Inst) {
	if f.code == nil {
		return
	}
	defer codeChanged(f)
	inst := &f.Insts[i]
	if isPEIPoint(inst) != isPEIPoint(old) || inst.IsControl() != old.IsControl() {
		copy(f.code, Lower(f.Insts))
		return
	}
	pei, exit := 0, 0
	for j := range f.Insts[:i] {
		if isPEIPoint(&f.Insts[j]) {
			pei++
		}
		if f.Insts[j].IsControl() {
			exit++
		}
	}
	f.code[i] = lower(inst, ordinal(inst, pei, exit))
}

// codeChanged runs after every change to a fragment's lowered code. It
// does nothing except in tests, which check the code against a fresh
// lowering at each change.
var codeChanged = func(*Fragment) {}

// ordinal is the ordinal an instruction's op carries: its PEI ordinal
// for loads and stores, its control-transfer ordinal for control
// transfers.
func ordinal(inst *ildp.Inst, pei, exit int) int {
	if inst.IsControl() {
		return exit
	}
	return pei
}

// isPEIPoint reports whether the instruction has a PEI-table entry: the
// core loads, stores and conditional branches (§2.2).
func isPEIPoint(inst *ildp.Inst) bool {
	if inst.Class != ildp.ClassCore {
		return false
	}
	switch inst.Kind {
	case ildp.KindLoad, ildp.KindStore, ildp.KindCallTransCond, ildp.KindCondBranch:
		return true
	}
	return false
}

// regSlot resolves a GPR read: R31 reads as zero; registers past the
// scratch file have no slot.
func regSlot(r alpha.Reg) (uint8, bool) {
	switch {
	case r == alpha.RegZero:
		return SlotZero, true
	case r < ildp.NumGPR:
		return uint8(r), true
	}
	return 0, false
}

// destSlot resolves a GPR write: R31 writes are discarded.
func destSlot(r alpha.Reg) (uint8, bool) {
	if r == alpha.RegZero {
		return SlotDiscard, true
	}
	return regSlot(r)
}

// accSlot resolves an accumulator write; an accumulator past the file
// has no slot.
func accSlot(a ildp.AccID) (uint8, bool) {
	if a >= ildp.MaxAccumulators {
		return 0, false
	}
	return SlotAcc + uint8(a), true
}

// accWrite resolves the accumulator an ALU operation or load writes:
// the discard slot when it writes none.
func accWrite(inst *ildp.Inst) (uint8, bool) {
	if !inst.WritesAcc {
		return SlotDiscard, true
	}
	return accSlot(inst.Acc)
}

// src resolves a source operand to a slot or an immediate. An
// accumulator source reads the instruction's accumulator modulo the
// file size, and a missing source reads zero.
func src(inst *ildp.Inst, s ildp.Src) (slot uint8, imm uint64, isImm, ok bool) {
	switch s.Kind {
	case ildp.SrcAcc:
		return SlotAcc + uint8(inst.Acc&7), 0, false, true
	case ildp.SrcGPR:
		slot, ok = regSlot(s.Reg)
		return slot, 0, false, ok
	case ildp.SrcImm:
		return 0, uint64(s.Imm), true, true
	}
	return SlotZero, 0, false, true
}

// single resolves a one-source operand to slot plus constant: a slot
// with 0, or SlotZero with the immediate.
func single(inst *ildp.Inst, s ildp.Src) (slot uint8, imm uint64, ok bool) {
	slot, imm, isImm, ok := src(inst, s)
	if isImm {
		slot = SlotZero
	}
	return slot, imm, ok
}

// writes packs a value-producing op's destination slots into Aux.
func writes(d, w uint8) uint32 { return uint32(d) | uint32(w)<<8 }

// lower lowers one instruction whose ordinal is ord.
func lower(inst *ildp.Inst, ord int) Op {
	o, ok := lowerOp(inst, uint32(ord)<<16)
	if !ok || usesFn(o.H) && inst.Op > 0xFF {
		return Op{H: HInvalid}
	}
	return o
}

// usesFn reports whether a handler reads Fn.
func usesFn(h Handler) bool {
	switch h {
	case HALU, HALUImmA, HALUImmB, HLoad, HStore, HStoreImm, HCMOV, HCondBranch, HSWPred:
		return true
	}
	return false
}

// lowerOp does the work of lower; ok is false when the instruction has
// no lowered form.
func lowerOp(inst *ildp.Inst, ord uint32) (Op, bool) {
	fn := uint8(inst.Op)
	switch inst.Kind {
	case ildp.KindALU:
		d, okD := destSlot(inst.Dest)
		w, okW := accWrite(inst)
		x, a, immA, okA := src(inst, inst.SrcA)
		y, b, immB, okB := src(inst, inst.SrcB)
		o := Op{Fn: fn, X: x, Y: y, Aux: writes(d, w)}
		switch {
		case immA && immB && foldable(inst.Op):
			o = Op{H: HMove, X: SlotZero, Imm: emu.EvalOp(inst.Op, a, b), Aux: o.Aux}
		case immA && immB:
			// The operation is undefined: run it on any inputs so it
			// fails at execution exactly as it would have.
			o.H, o.X, o.Imm = HALUImmB, SlotZero, b
		case immA:
			o.H, o.Imm = HALUImmA, a
		case immB:
			o.H, o.Imm = HALUImmB, b
		default:
			o.H = HALU
		}
		return o, okD && okW && okA && okB

	case ildp.KindCMOV:
		// The condition is the accumulator unless SrcA names a GPR.
		x, okX := SlotAcc+uint8(inst.Acc&7), true
		if inst.SrcA.Kind == ildp.SrcGPR {
			x, okX = regSlot(inst.SrcA.Reg)
		}
		y, imm, okY := single(inst, inst.SrcB)
		d, okD := destSlot(inst.Dest)
		return Op{H: HCMOV, Fn: fn, X: x, Y: y, Imm: imm, Aux: writes(d, SlotDiscard)},
			okX && okY && okD

	case ildp.KindLoad:
		x, imm, okX := single(inst, inst.SrcA)
		d, okD := destSlot(inst.Dest)
		w, okW := accWrite(inst)
		return Op{H: HLoad, Fn: fn, X: x, Imm: imm + uint64(int64(inst.Disp)),
			Aux: ord | writes(d, w)}, okX && okD && okW

	case ildp.KindStore:
		x, a, okX := single(inst, inst.SrcA)
		disp := a + uint64(int64(inst.Disp))
		y, b, immB, okY := src(inst, inst.SrcB)
		if !immB {
			return Op{H: HStore, Fn: fn, X: x, Y: y, Imm: disp, Aux: ord}, okX && okY
		}
		// A stored immediate takes Imm; the displacement must fit the 16
		// bits of Aux left beside the ordinal.
		fits := uint64(int64(int16(disp))) == disp
		return Op{H: HStoreImm, Fn: fn, X: x, Imm: b, Aux: ord | uint32(uint16(disp))},
			okX && fits

	case ildp.KindCopyToGPR:
		d, ok := destSlot(inst.Dest)
		return Op{H: HMove, X: SlotAcc + uint8(inst.Acc&7), Aux: writes(d, SlotDiscard)}, ok

	case ildp.KindCopyFromGPR:
		x, imm, okX := single(inst, inst.SrcA)
		w, okW := accSlot(inst.Acc)
		return Op{H: HMove, X: x, Imm: imm, Aux: writes(SlotDiscard, w)}, okX && okW

	case ildp.KindLoadETA:
		w, ok := accSlot(inst.Acc)
		return Op{H: HMove, X: SlotZero, Imm: inst.VAddr, Aux: writes(SlotDiscard, w)}, ok

	case ildp.KindSaveVRA:
		d, ok := destSlot(inst.Dest)
		return Op{H: HMove, X: SlotZero, Imm: inst.VAddr, Aux: writes(d, SlotDiscard)}, ok

	case ildp.KindSetVPC, ildp.KindDispatchOp:
		return Op{H: HNop}, true

	case ildp.KindPushRAS:
		o := Op{H: HPushRAS, Imm: inst.VAddr}
		o.setLink(ildp.NoFrag)
		return o, true

	case ildp.KindCondBranch, ildp.KindCallTransCond:
		x, imm, ok := single(inst, inst.SrcA)
		h := HCondBranch
		if inst.Class == ildp.ClassChain && inst.Frag == ildp.FragDispatch {
			h = HSWPred
		}
		return Op{H: h, Fn: fn, X: x, Imm: imm, Aux: ord}, ok

	case ildp.KindBranch, ildp.KindCallTrans:
		return Op{H: HBranch, Aux: ord}, true

	case ildp.KindJumpRet:
		x, imm, ok := single(inst, inst.SrcA)
		return Op{H: HJumpRet, X: x, Imm: imm, Aux: ord}, ok

	case ildp.KindJumpInd:
		return Op{H: HJumpInd, Aux: ord}, true
	}
	return Op{}, false
}

// foldable reports whether emu.EvalOp defines op, so that an operation
// on two immediates can be evaluated at install.
func foldable(op alpha.Op) bool { return emu.IsALUOp(op) || op == alpha.OpLDA }

// Code returns the fragment's lowered code: one Op per instruction and
// a trailing HEnd. It is nil for a fragment that was never installed.
func (f *Fragment) Code() []Op { return f.code }

// SetInst replaces instruction i of an installed fragment and re-lowers
// it, keeping Code in step with Insts. It leaves the pristine shadow
// copy alone: a change made here is damage for IntegrityOK to find, not
// a legitimate patch.
func (f *Fragment) SetInst(i int, inst ildp.Inst) {
	old := f.Insts[i]
	f.Insts[i] = inst
	f.relower(i, &old)
}

// CheckCode reports whether the fragment's lowered code equals a fresh
// lowering of its instructions. The one difference allowed is the
// return-target fragment a push-dual-ras op has cached.
func (f *Fragment) CheckCode() error {
	want := Lower(f.Insts)
	if len(f.code) != len(want) {
		return fmt.Errorf("tcache: fragment %d has %d ops for %d instructions", f.ID, len(f.code), len(f.Insts))
	}
	for i := range want {
		got := f.code[i]
		if got.H == HPushRAS {
			got.setLink(ildp.NoFrag)
		}
		if got != want[i] {
			return fmt.Errorf("tcache: fragment %d op %d is %+v, a fresh lowering gives %+v",
				f.ID, i, f.code[i], want[i])
		}
	}
	return nil
}

// ReturnTarget returns the fragment translated from a push-dual-ras
// op's return address, or ildp.NoFrag. The op caches the ID it found;
// the cache is trusted only while that slot still holds a fragment
// starting at the address, the same check a taken link gets, and a miss
// falls back to Lookup.
func (c *Cache) ReturnTarget(o *Op) int32 {
	if f := c.Frag(o.link()); f != nil && f.VStart == o.Imm {
		return f.ID
	}
	f := c.Lookup(o.Imm)
	if f == nil {
		return ildp.NoFrag
	}
	o.setLink(f.ID)
	return f.ID
}
