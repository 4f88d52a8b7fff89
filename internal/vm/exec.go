package vm

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/trace"
)

// profEnter, profExit, and profChain forward frame transitions and
// chain-verdict events to the execution profiler. The profiler's
// methods are nil-safe, so only profEnter guards: its guard avoids
// computing StrandStats when profiling is disabled.
func (v *VM) profEnter(f *tcache.Fragment) {
	if p := v.cfg.Prof; p != nil {
		n, maxLen := f.StrandStats()
		p.FragEnter(f.ID, f.VStart, prof.FragInfo{
			Insts: len(f.Insts), SrcInsts: f.SrcCount,
			Strands: n, MaxStrand: maxLen, Straightened: f.Straightened,
		}, v.Stats.TransIInsts, v.Stats.TransVInsts)
	}
}

func (v *VM) profExit(reason prof.ExitKind) {
	v.cfg.Prof.FragExit(reason, v.Stats.TransIInsts, v.Stats.TransVInsts)
}

func (v *VM) profChain(kind prof.ChainKind) {
	v.cfg.Prof.Chain(kind)
}

// execTranslated runs translated code starting at frag, following fragment
// links, chaining code, the dual-address RAS, and the shared dispatch
// routine, until control exits back to the VM. It returns the V-ISA
// address at which interpretation (or further lookup) should continue.
//
// The loop pays only for what is attached. It builds a trace record only
// when a sink is attached, and it does no per-instruction statistics:
// the translated-instruction counts of a run through a fragment are
// static, so they are charged once, from the fragment's exit-indexed
// counts, when control leaves it (DESIGN.md §16).
func (v *VM) execTranslated(frag *tcache.Fragment) (uint64, error) {
	sink := v.cfg.Sink
	var (
		idx     int    // current instruction of frag
		peiIdx  int    // PEI-table ordinal of the next load, store or core branch
		exitIdx int    // ordinal of the next control transfer
		iaddr   uint64 // I-address of frag.Insts[idx], kept only with a sink
		recBuf  trace.Rec
		// pending is true while frag.Insts[:idx+1] is not yet charged.
		pending bool
	)
	// A return that leaves neither through a control transfer nor
	// through a trap (a malformed fragment, or a semantic panic unwinding
	// to Run) charges the executed prefix here, the failing instruction
	// included.
	defer func() {
		if pending {
			v.Stats.addCounts(frag.Prefix(idx))
		}
	}()
	enterFrag := func(f *tcache.Fragment) {
		frag = f
		idx, peiIdx, exitIdx = 0, 0, 0
		iaddr = f.IAddr
		pending = true
		frag.ExecCount++
		v.Stats.FragEntries++
		v.profEnter(frag)
	}
	// leave charges the prefix ending at the control transfer at idx. It
	// runs before anything that can observe Stats as control leaves the
	// fragment: takeBranch's dispatch and recovery hooks, fragUsable's
	// watchdog, Poll and Stop, and the profiler.
	leave := func() {
		pending = false
		if e, ok := frag.Exit(exitIdx, idx); ok {
			v.Stats.addCounts(*e)
			return
		}
		v.Stats.addCounts(frag.Prefix(idx))
	}
	// trap charges the prefix ending at a load or store that faulted. The
	// faulting I-instruction counts as executed, but its own V-instruction
	// did not retire: it carries one credit (any more belong to earlier
	// straightened-away branches), which is held back so TotalVInsts
	// equals the interpreter's count at the same trap.
	trap := func(inst *ildp.Inst) {
		pending = false
		e := frag.Prefix(idx)
		if inst.VCredit > 0 {
			e.VInsts--
		}
		v.Stats.addCounts(e)
	}
	enterFrag(frag)

	for {
		if idx >= len(frag.Insts) {
			return 0, fmt.Errorf("vm: fell off end of fragment %d (V %#x)", frag.ID, frag.VStart)
		}
		inst := &frag.Insts[idx]
		var rec *trace.Rec
		if sink != nil {
			recBuf = v.newRec(inst, iaddr, frag.Sizes[idx])
			rec = &recBuf
			iaddr += uint64(frag.Sizes[idx])
		}

		switch inst.Kind {
		case ildp.KindALU:
			val := emu.EvalOp(inst.Op, v.readSrc(inst, inst.SrcA), v.readSrc(inst, inst.SrcB))
			if inst.WritesAcc {
				v.acc[inst.Acc] = val
			}
			if inst.Dest != alpha.RegZero {
				v.writeGPR(inst.Dest, val)
			}

		case ildp.KindCMOV:
			cond := v.acc[inst.Acc&7]
			if inst.SrcA.Kind == ildp.SrcGPR {
				cond = v.readGPR(inst.SrcA.Reg)
			}
			if emu.EvalCond(inst.Op, cond) {
				v.writeGPR(inst.Dest, v.readSrc(inst, inst.SrcB))
			}

		case ildp.KindLoad:
			addr := v.readSrc(inst, inst.SrcA) + uint64(int64(inst.Disp))
			val, err := emu.LoadMem(v.mem, inst.Op, addr)
			if err != nil {
				trap(inst)
				return 0, v.preciseTrap(frag, peiIdx, inst, err)
			}
			if rec != nil {
				rec.MemAddr = recMemAddr(inst.Op == alpha.OpLDQU, addr)
			}
			if inst.WritesAcc {
				v.acc[inst.Acc] = val
			}
			if inst.Dest != alpha.RegZero {
				v.writeGPR(inst.Dest, val)
			}

		case ildp.KindStore:
			addr := v.readSrc(inst, inst.SrcA) + uint64(int64(inst.Disp))
			data := v.readSrc(inst, inst.SrcB)
			if err := emu.StoreMem(v.mem, inst.Op, addr, data); err != nil {
				trap(inst)
				return 0, v.preciseTrap(frag, peiIdx, inst, err)
			}
			if rec != nil {
				rec.MemAddr = recMemAddr(inst.Op == alpha.OpSTQU, addr)
			}

		case ildp.KindCopyToGPR:
			v.writeGPR(inst.Dest, v.acc[inst.Acc&7])

		case ildp.KindCopyFromGPR:
			v.acc[inst.Acc] = v.readSrc(inst, inst.SrcA)

		case ildp.KindSetVPC:
			// The implementation PC base for trap recovery; functionally a
			// special-register write.

		case ildp.KindLoadETA:
			v.acc[inst.Acc] = inst.VAddr

		case ildp.KindSaveVRA:
			v.writeGPR(inst.Dest, inst.VAddr)

		case ildp.KindPushRAS:
			target := ildp.NoFrag
			if f := v.tc.Lookup(inst.VAddr); f != nil {
				target = f.ID
			}
			v.ras.push(inst.VAddr, target)

		case ildp.KindCondBranch, ildp.KindCallTransCond, ildp.KindBranch, ildp.KindCallTrans:
			taken := true
			if inst.Kind == ildp.KindCondBranch || inst.Kind == ildp.KindCallTransCond {
				taken = emu.EvalCond(inst.Op, v.readSrc(inst, inst.SrcA))
				if inst.Class == ildp.ClassChain && inst.Frag == ildp.FragDispatch {
					// Software jump prediction verdict.
					if taken {
						v.Stats.SWPredMisses++
						v.profChain(prof.ChainSWPredMiss)
					} else {
						v.Stats.SWPredHits++
						v.profChain(prof.ChainSWPredHit)
					}
				}
			}
			if !taken {
				exitIdx++
				break
			}
			if rec != nil {
				rec.Taken = true
			}
			leave()
			next, exitV := v.takeBranch(inst, rec)
			if next == nil {
				v.finishRec(rec, true)
				v.profExit(prof.ExitVM)
				return exitV, nil
			}
			v.finishRec(rec, false)
			enterFrag(next)
			continue

		case ildp.KindJumpRet:
			target := v.readSrc(inst, inst.SrcA) &^ 3
			entry, ok := v.ras.pop()
			if ok && entry.v == target && entry.frag != ildp.NoFrag {
				if f := v.tc.Frag(entry.frag); f != nil && f.VStart == entry.v {
					v.Stats.RASHits++
					v.profChain(prof.ChainRASHit)
					if rec != nil {
						rec.Taken = true
						rec.PredHit = true
						rec.Target = f.IAddr
					}
					leave()
					if !v.fragUsable(f) {
						v.finishRec(rec, true)
						return entry.v, nil
					}
					v.finishRec(rec, false)
					enterFrag(f)
					continue
				}
			}
			// Miss: latch the target for dispatch and fall through to the
			// unconditional branch that follows.
			v.Stats.RASMisses++
			v.profChain(prof.ChainRASMiss)
			v.writeGPR(ildp.RegJTarget, target)
			exitIdx++

		case ildp.KindDispatchOp:
			// Dispatch body work; the lookup happens at the final jump.

		case ildp.KindJumpInd:
			leave()
			f, exitV, miss := v.dispatchJump(rec)
			if miss {
				v.profExit(prof.ExitVM)
			}
			if f == nil {
				return exitV, nil
			}
			enterFrag(f)
			continue

		default:
			return 0, fmt.Errorf("vm: cannot execute %v", inst.Kind)
		}

		v.finishRec(rec, false)
		if peiPoint(inst) {
			peiIdx++
		}
		idx++
	}
}

// addCounts charges an executed run of translated instructions.
func (s *Stats) addCounts(e tcache.ExitCounts) {
	s.TransIInsts += uint64(e.IInsts)
	s.TransVInsts += uint64(e.VInsts)
	s.CopiesExecuted += uint64(e.Copies)
	for c, n := range e.Class {
		s.ClassCounts[c] += uint64(n)
	}
	for u, n := range e.Usage {
		s.UsageDyn[u] += uint64(n)
	}
}

// recMemAddr is the trace record's memory address: unaligned quadword
// accesses touch the aligned quadword.
func recMemAddr(unaligned bool, addr uint64) uint64 {
	if unaligned {
		return addr &^ 7
	}
	return addr
}

// takeBranch resolves a taken control transfer: into another fragment,
// into the shared dispatch routine, or out to the VM (call-translator).
// A nil fragment means exit to the VM at exitV. rec is nil when no sink
// is attached.
func (v *VM) takeBranch(inst *ildp.Inst, rec *trace.Rec) (f *tcache.Fragment, exitV uint64) {
	switch {
	case inst.Frag == ildp.FragDispatch:
		v.cfg.Prof.EnterDispatch(v.Stats.TransIInsts, v.Stats.TransVInsts)
		f, exitV = v.runDispatch()
		if rec != nil {
			rec.Target = dispatchEntry(v.tc)
		}
		return f, exitV
	case inst.Frag >= 0:
		f = v.tc.Frag(inst.Frag)
		if f == nil || f.VStart != inst.VAddr {
			// Stale link: the target was invalidated (or its ID slot
			// reused) after this branch was patched. Recover by exiting to
			// the VM at the architected target, which the patch preserved.
			v.Stats.StaleLinks++
			v.noteRecovery("stale link", inst.VAddr)
			return nil, inst.VAddr
		}
		v.profChain(prof.ChainDirect)
		if rec != nil {
			rec.Target = f.IAddr
		}
		if !v.fragUsable(f) {
			return nil, f.VStart
		}
		return f, 0
	default:
		// Call-translator: exit to the VM at the V-ISA target.
		return nil, inst.VAddr
	}
}

// runDispatch executes the shared dispatch routine and performs the
// PC-translation-table lookup at its final indirect jump. Its counts are
// charged as one run; its 20 instructions enter the trace one by one
// when a sink is attached.
func (v *VM) runDispatch() (*tcache.Fragment, uint64) {
	insts, addrs := v.tc.Dispatch()
	last := len(insts) - 1
	v.Stats.addCounts(v.tc.DispatchCounts())
	var (
		rec    *trace.Rec
		recBuf trace.Rec
	)
	if v.cfg.Sink != nil {
		rec = &recBuf
		for i := range insts {
			*rec = v.newRec(&insts[i], addrs[i], uint8(insts[i].EncodedSize(ildp.Modified)))
			if i < last {
				v.finishRec(rec, false)
			}
		}
	}
	f, exitV, _ := v.dispatchJump(rec)
	return f, exitV
}

// dispatchJump performs the dispatch routine's final indirect jump: the
// PC-translation-table lookup of the latched target. It returns the
// fragment to enter, or nil and the V-ISA address at which to exit to the
// VM; miss reports a failed lookup. It emits rec, the jump's trace
// record (nil without a sink).
func (v *VM) dispatchJump(rec *trace.Rec) (f *tcache.Fragment, exitV uint64, miss bool) {
	target := v.readGPR(ildp.RegJTarget)
	v.Stats.DispatchRuns++
	if rec != nil {
		rec.Taken = true
	}
	f = v.tc.Lookup(target)
	if f == nil {
		// The caller's exit-to-VM path closes the dispatch frame.
		v.profChain(prof.ChainDispatchMiss)
		v.finishRec(rec, true)
		return nil, target, true
	}
	v.Stats.DispatchHits++
	v.profChain(prof.ChainDispatchHit)
	if rec != nil {
		rec.Target = f.IAddr
	}
	if !v.fragUsable(f) {
		v.finishRec(rec, true)
		return nil, target, false
	}
	v.finishRec(rec, false)
	return f, 0, false
}

// preciseTrap recovers the precise V-ISA state for a trap inside
// translated code: the trapping V-PC comes from the PEI table, and any
// architected registers whose current values live only in accumulators
// are materialised from the accumulator file (§2.2).
func (v *VM) preciseTrap(frag *tcache.Fragment, peiIdx int, inst *ildp.Inst, cause error) error {
	if peiIdx >= len(frag.PEI) {
		return fmt.Errorf("vm: PEI index %d out of range in fragment %d", peiIdx, frag.ID)
	}
	vpc := frag.PEI[peiIdx]
	if vpc != inst.VPC {
		return fmt.Errorf("vm: PEI table disagrees: table %#x, instruction %#x", vpc, inst.VPC)
	}
	if peiIdx < len(frag.PEIRecover) {
		for _, pair := range frag.PEIRecover[peiIdx] {
			v.cpu.WriteReg(pair.Reg, v.acc[pair.Acc&7])
		}
	}
	v.cpu.PC = vpc
	return &emu.Trap{PC: vpc, Cause: cause}
}

func peiPoint(inst *ildp.Inst) bool {
	if inst.Class != ildp.ClassCore {
		return false
	}
	switch inst.Kind {
	case ildp.KindLoad, ildp.KindStore, ildp.KindCallTransCond, ildp.KindCondBranch:
		return true
	}
	return false
}

func dispatchEntry(tc *tcache.Cache) uint64 {
	_, addrs := tc.Dispatch()
	return addrs[0]
}

// readGPR reads an I-ISA register: architected GPRs come from the
// interpreter state, the VM-private scratch registers from the VM.
func (v *VM) readGPR(r alpha.Reg) uint64 {
	if r < alpha.NumRegs {
		return v.cpu.ReadReg(r)
	}
	return v.scratch[r-alpha.NumRegs]
}

func (v *VM) writeGPR(r alpha.Reg, val uint64) {
	if r < alpha.NumRegs {
		v.cpu.WriteReg(r, val)
		return
	}
	v.scratch[r-alpha.NumRegs] = val
}

func (v *VM) readSrc(inst *ildp.Inst, s ildp.Src) uint64 {
	switch s.Kind {
	case ildp.SrcAcc:
		return v.acc[inst.Acc&7]
	case ildp.SrcGPR:
		return v.readGPR(s.Reg)
	case ildp.SrcImm:
		return uint64(s.Imm)
	}
	return 0
}

// newRec builds the timing-trace record skeleton for one I-instruction.
func (v *VM) newRec(inst *ildp.Inst, iaddr uint64, size uint8) trace.Rec {
	rec := trace.Rec{
		PC:      iaddr,
		Size:    size,
		SrcReg:  [2]uint8{trace.NoReg, trace.NoReg},
		DstReg:  trace.NoReg,
		SrcAcc:  trace.NoAcc,
		DstAcc:  trace.NoAcc,
		VCredit: inst.VCredit,
	}
	si := 0
	if inst.SrcA.Kind == ildp.SrcGPR && inst.SrcA.Reg != alpha.RegZero {
		rec.SrcReg[si] = uint8(inst.SrcA.Reg)
		si++
	}
	if inst.SrcB.Kind == ildp.SrcGPR && inst.SrcB.Reg != alpha.RegZero {
		rec.SrcReg[si] = uint8(inst.SrcB.Reg)
	}
	if inst.ReadsAcc() && inst.Acc != ildp.NoAcc {
		rec.SrcAcc = uint8(inst.Acc)
	}
	if inst.WritesAcc && inst.Acc != ildp.NoAcc {
		rec.DstAcc = uint8(inst.Acc)
	}
	if inst.Dest != alpha.RegZero {
		rec.DstReg = uint8(inst.Dest)
		rec.DstOperational = operationalWrite(inst)
	}
	rec.Class = recClass(inst)
	if inst.IsControl() {
		rec.MemWidth = 0
	} else if inst.Kind == ildp.KindLoad || inst.Kind == ildp.KindStore {
		rec.MemWidth = emu.MemWidth(inst.Op)
	}
	return rec
}

// operationalWrite reports whether the destination-GPR write must reach
// the latency-critical operational register file: inter-strand
// communication values, live-outs, explicit copies, and VM chaining
// latches — but not Modified-form architected-state-only updates (§2.3).
func operationalWrite(inst *ildp.Inst) bool {
	switch inst.Kind {
	case ildp.KindCopyToGPR, ildp.KindSaveVRA, ildp.KindCMOV:
		return true
	}
	if inst.Class == ildp.ClassChain {
		return true
	}
	switch inst.Usage {
	case ildp.UsageLiveOut, ildp.UsageComm:
		return true
	}
	return false
}

func recClass(inst *ildp.Inst) trace.Class {
	switch inst.Kind {
	case ildp.KindALU, ildp.KindCMOV, ildp.KindCopyToGPR, ildp.KindCopyFromGPR,
		ildp.KindSetVPC, ildp.KindLoadETA, ildp.KindSaveVRA, ildp.KindPushRAS,
		ildp.KindDispatchOp:
		if inst.Op == alpha.OpMULL || inst.Op == alpha.OpMULQ || inst.Op == alpha.OpUMULH {
			return trace.ClassMul
		}
		return trace.ClassALU
	case ildp.KindLoad:
		return trace.ClassLoad
	case ildp.KindStore:
		return trace.ClassStore
	case ildp.KindCondBranch, ildp.KindCallTransCond:
		return trace.ClassBranch
	case ildp.KindBranch, ildp.KindCallTrans:
		return trace.ClassJump
	case ildp.KindJumpRet:
		return trace.ClassRet
	case ildp.KindJumpInd:
		return trace.ClassInd
	}
	return trace.ClassALU
}

// finishRec completes and emits a trace record. endOfRun marks the final
// record of a translated-execution episode (the timing models drain and
// restart with an empty pipeline across mode switches, as in §4.1). rec
// is nil when no sink is attached; the call inlines, so the no-sink path
// pays one nil test and no call.
func (v *VM) finishRec(rec *trace.Rec, endOfRun bool) {
	if rec == nil {
		return
	}
	if endOfRun {
		rec.Taken = true
		rec.Target = 0
	}
	v.cfg.Sink.Append(*rec)
}
