package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

// The executor runs lowered code (tcache.Op), in which operand modes and
// registers were resolved at install. These tests run one hand-built
// instruction of every kind and every operand form the lowering tells
// apart through execTranslated, and compare the machine state with a
// reference that applies the I-ISA semantics directly from the
// instruction through emu.EvalOp, EvalCond, LoadMem and StoreMem.

const (
	formVStart   = 0x8000  // the fragment under test
	formExit     = 0x9000  // its trailing call-translator exit
	formTarget   = 0xa000  // the tested control transfer's V-ISA target
	formReturn   = 0xb000  // a translated return point for push-dual-ras
	formVPC      = 0x8004  // the tested instruction's source V-PC
	formDataBase = 0x20000 // operand values point into this data area
)

// refState is the reference machine: architected and scratch GPRs,
// accumulators and memory.
type refState struct {
	reg     [alpha.NumRegs]uint64
	scratch [ildp.NumGPR - alpha.NumRegs]uint64
	acc     [ildp.MaxAccumulators]uint64
	mem     *mem.Memory
}

// newRefState seeds a state. With zero set every register and
// accumulator reads 0; otherwise each holds a distinct aligned address
// into the data area, so loads and stores through any of them land.
func newRefState(zero bool) *refState {
	s := &refState{mem: mem.New()}
	if !zero {
		for r := 0; r < alpha.NumRegs-1; r++ {
			s.reg[r] = formDataBase + 8*uint64(r)
		}
		for i := range s.scratch {
			s.scratch[i] = formDataBase + 0x100 + 8*uint64(i)
		}
		for a := range s.acc {
			s.acc[a] = formDataBase + 0x200 + 8*uint64(a)
		}
	}
	for off := uint64(0); off < 0x400; off += 8 {
		if err := s.mem.Write64(formDataBase+off, off*0x0101_0101_0101+1); err != nil {
			panic(err)
		}
	}
	return s
}

func (s *refState) read(r alpha.Reg) uint64 {
	switch {
	case r == alpha.RegZero:
		return 0
	case r < alpha.NumRegs:
		return s.reg[r]
	}
	return s.scratch[r-alpha.NumRegs]
}

func (s *refState) write(r alpha.Reg, v uint64) {
	switch {
	case r == alpha.RegZero:
	case r < alpha.NumRegs:
		s.reg[r] = v
	default:
		s.scratch[r-alpha.NumRegs] = v
	}
}

func (s *refState) src(inst *ildp.Inst, src ildp.Src) uint64 {
	switch src.Kind {
	case ildp.SrcAcc:
		return s.acc[inst.Acc&7]
	case ildp.SrcGPR:
		return s.read(src.Reg)
	case ildp.SrcImm:
		return uint64(src.Imm)
	}
	return 0
}

// refOutcome is what running [set-VPC, inst, call-translator formExit]
// produces besides the state: the exit address, the precise-trap PC
// (valid when trapped), and a panic from an undefined operation.
type refOutcome struct {
	exit    uint64
	trapped bool
	trapPC  uint64
	panicV  any
	ras     rasEntry // the RAS top after a push
}

// step applies inst to s: the reference semantics of one I-instruction
// followed by the fragment's exit.
func (s *refState) step(inst *ildp.Inst, pairs []translate.RegAcc, retFrag int32) (out refOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out = refOutcome{panicV: r}
		}
	}()
	out.exit = formExit
	trap := func(err error) refOutcome {
		for _, p := range pairs {
			s.write(p.Reg, s.acc[p.Acc&7])
		}
		return refOutcome{trapped: true, trapPC: inst.VPC}
	}
	switch inst.Kind {
	case ildp.KindALU:
		v := emu.EvalOp(inst.Op, s.src(inst, inst.SrcA), s.src(inst, inst.SrcB))
		if inst.WritesAcc {
			s.acc[inst.Acc] = v
		}
		s.write(inst.Dest, v)
	case ildp.KindCMOV:
		cond := s.acc[inst.Acc&7]
		if inst.SrcA.Kind == ildp.SrcGPR {
			cond = s.read(inst.SrcA.Reg)
		}
		if emu.EvalCond(inst.Op, cond) {
			s.write(inst.Dest, s.src(inst, inst.SrcB))
		}
	case ildp.KindLoad:
		v, err := emu.LoadMem(s.mem, inst.Op, s.src(inst, inst.SrcA)+uint64(int64(inst.Disp)))
		if err != nil {
			return trap(err)
		}
		if inst.WritesAcc {
			s.acc[inst.Acc] = v
		}
		s.write(inst.Dest, v)
	case ildp.KindStore:
		addr := s.src(inst, inst.SrcA) + uint64(int64(inst.Disp))
		if err := emu.StoreMem(s.mem, inst.Op, addr, s.src(inst, inst.SrcB)); err != nil {
			return trap(err)
		}
	case ildp.KindCopyToGPR:
		s.write(inst.Dest, s.acc[inst.Acc&7])
	case ildp.KindCopyFromGPR:
		s.acc[inst.Acc] = s.src(inst, inst.SrcA)
	case ildp.KindLoadETA:
		s.acc[inst.Acc] = inst.VAddr
	case ildp.KindSaveVRA:
		s.write(inst.Dest, inst.VAddr)
	case ildp.KindPushRAS:
		out.ras = rasEntry{v: inst.VAddr, frag: retFrag}
	case ildp.KindCondBranch, ildp.KindCallTransCond:
		if emu.EvalCond(inst.Op, s.src(inst, inst.SrcA)) {
			out.exit = inst.VAddr
		}
	case ildp.KindBranch, ildp.KindCallTrans:
		out.exit = inst.VAddr
	case ildp.KindJumpRet:
		// The RAS is empty: a miss latches the target and falls through.
		s.write(ildp.RegJTarget, s.src(inst, inst.SrcA)&^3)
	case ildp.KindJumpInd:
		// Nothing is translated at the latched target: dispatch exits
		// to the VM there.
		out.exit = s.read(ildp.RegJTarget)
	}
	return out
}

// formCase is one hand-built instruction to run.
type formCase struct {
	name  string
	inst  ildp.Inst
	pairs []translate.RegAcc // PEI recovery pairs for a trapping case
}

// runForm runs c from a state seeded by zero through the executor and
// through the reference, and compares them.
func runForm(t *testing.T, c formCase, zero bool) {
	t.Helper()
	label := fmt.Sprintf("%s (zero=%v)", c.name, zero)
	ref := newRefState(zero)

	got := newRefState(zero)
	v := New(got.mem, DefaultConfig())
	v.cpu.Reg = got.reg
	copy(v.file[alpha.NumRegs:], got.scratch[:])
	copy(v.file[tcache.SlotAcc:], got.acc[:])

	// A translated return point for push-dual-ras to find.
	ret, err := v.tc.Install(&translate.Result{VStart: formReturn, Insts: []ildp.Inst{
		{Kind: ildp.KindSetVPC, VAddr: formReturn, Frag: ildp.NoFrag},
		{Kind: ildp.KindCallTrans, VAddr: formExit, Frag: ildp.NoFrag, Class: ildp.ClassChain},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inst := c.inst
	inst.VPC = formVPC
	res := &translate.Result{VStart: formVStart, Insts: []ildp.Inst{
		{Kind: ildp.KindSetVPC, VAddr: formVStart, Frag: ildp.NoFrag, Class: ildp.ClassSpecial},
		inst,
		{Kind: ildp.KindCallTrans, VAddr: formExit, Frag: ildp.NoFrag, Class: ildp.ClassChain},
	}}
	switch inst.Kind {
	case ildp.KindLoad, ildp.KindStore, ildp.KindCondBranch, ildp.KindCallTransCond:
		res.PEI = []uint64{formVPC}
		res.PEIRecover = [][]translate.RegAcc{c.pairs}
	}
	f, err := v.tc.Install(res)
	if err != nil {
		t.Fatalf("%s: install: %v", label, err)
	}
	if op := f.Code()[1]; op.H == tcache.HInvalid {
		t.Fatalf("%s: lowered to HInvalid", label)
	}

	retFrag := ildp.NoFrag
	if inst.VAddr == formReturn {
		retFrag = ret.ID
	}
	want := ref.step(&inst, c.pairs, retFrag)
	var exit uint64
	var panicV any
	func() {
		defer func() { panicV = recover() }()
		exit, err = v.execTranslated(f)
	}()

	if want.panicV != nil || panicV != nil {
		var we, ge *emu.SemanticsError
		wok := errors.As(asError(want.panicV), &we)
		gok := errors.As(asError(panicV), &ge)
		if !wok || !gok || *we != *ge {
			t.Fatalf("%s: panic %v, want %v", label, panicV, want.panicV)
		}
		return
	}
	if want.trapped {
		var trap *emu.Trap
		if !errors.As(err, &trap) || trap.PC != want.trapPC || v.cpu.PC != want.trapPC {
			t.Fatalf("%s: got %v (PC %#x), want a precise trap at %#x", label, err, v.cpu.PC, want.trapPC)
		}
	} else {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if exit != want.exit {
			t.Errorf("%s: exit at %#x, want %#x", label, exit, want.exit)
		}
	}
	if v.cpu.Reg != ref.reg {
		t.Errorf("%s: GPRs\n got  %#x\n want %#x", label, v.cpu.Reg, ref.reg)
	}
	if scratch := v.file[alpha.NumRegs:ildp.NumGPR]; [len(ref.scratch)]uint64(scratch) != ref.scratch {
		t.Errorf("%s: scratch GPRs\n got  %#x\n want %#x", label, scratch, ref.scratch)
	}
	if acc := v.file[tcache.SlotAcc:][:ildp.MaxAccumulators]; [ildp.MaxAccumulators]uint64(acc) != ref.acc {
		t.Errorf("%s: accumulators %#x, want %#x", label, acc, ref.acc)
	}
	if z := v.file[tcache.SlotZero]; z != 0 {
		t.Errorf("%s: the zero slot holds %#x", label, z)
	}
	if ok, addr := mem.Equal(v.mem, ref.mem); !ok {
		t.Errorf("%s: memory differs at %#x", label, addr)
	}
	if inst.Kind == ildp.KindPushRAS {
		if e, ok := v.ras.pop(); !ok || e != want.ras {
			t.Errorf("%s: RAS top %+v, want %+v", label, e, want.ras)
		}
	}
}

func asError(v any) error {
	err, _ := v.(error)
	return err
}

// operand forms the lowering tells apart.
var (
	formSrcs = []struct {
		name string
		src  ildp.Src
	}{
		{"acc", ildp.AccSrc()},
		{"gpr", ildp.GPRSrc(5)},
		{"r31", ildp.GPRSrc(alpha.RegZero)},
		{"scratch", ildp.GPRSrc(ildp.ScratchBase + 2)},
		{"imm", ildp.ImmSrc(16)},
		{"none", ildp.Src{}},
	}
	formDests = []alpha.Reg{alpha.RegZero, 7, ildp.ScratchBase + 4}
)

// formCases builds every case: each kind, each source form, each
// destination form, and the accumulator write on and off.
func formCases() []formCase {
	var cases []formCase
	add := func(name string, inst ildp.Inst) {
		inst.Frag = ildp.NoFrag
		cases = append(cases, formCase{name: name, inst: inst})
	}
	const acc = 3
	for _, a := range formSrcs {
		for _, b := range formSrcs {
			for _, d := range formDests {
				for _, wa := range []bool{false, true} {
					for _, op := range []alpha.Op{alpha.OpSUBQ, alpha.OpS8ADDL, alpha.OpCMPULT, alpha.OpSRL} {
						add(fmt.Sprintf("alu %v %s,%s->r%d wacc=%v", op, a.name, b.name, d, wa), ildp.Inst{
							Kind: ildp.KindALU, Op: op, SrcA: a.src, SrcB: b.src,
							Acc: acc, WritesAcc: wa, Dest: d,
						})
					}
				}
			}
			for _, op := range []alpha.Op{alpha.OpCMOVEQ, alpha.OpCMOVLT} {
				add(fmt.Sprintf("cmov %v %s,%s", op, a.name, b.name), ildp.Inst{
					Kind: ildp.KindCMOV, Op: op, SrcA: a.src, SrcB: b.src, Acc: acc, Dest: 7,
				})
			}
			// Stores of every address and data form, at an aligned and
			// at a trapping displacement.
			for _, disp := range []int32{8, -16, 1} {
				for _, op := range []alpha.Op{alpha.OpSTQ, alpha.OpSTB, alpha.OpSTQU} {
					add(fmt.Sprintf("store %v [%s%+d] <- %s", op, a.name, disp, b.name), ildp.Inst{
						Kind: ildp.KindStore, Op: op, SrcA: a.src, SrcB: b.src,
						Disp: disp, Acc: acc, Class: ildp.ClassCore,
					})
				}
			}
		}
		for _, d := range formDests {
			for _, wa := range []bool{false, true} {
				for _, disp := range []int32{0, 24, 1} {
					for _, op := range []alpha.Op{alpha.OpLDQ, alpha.OpLDL, alpha.OpLDBU, alpha.OpLDQU} {
						add(fmt.Sprintf("load %v r%d <- [%s%+d] wacc=%v", op, d, a.name, disp, wa), ildp.Inst{
							Kind: ildp.KindLoad, Op: op, SrcA: a.src, Disp: disp,
							Acc: acc, WritesAcc: wa, Dest: d, Class: ildp.ClassCore,
						})
					}
				}
			}
		}
		add("copy-from-gpr "+a.name, ildp.Inst{Kind: ildp.KindCopyFromGPR, SrcA: a.src, Acc: acc, WritesAcc: true})
		add("jump-ret "+a.name, ildp.Inst{Kind: ildp.KindJumpRet, SrcA: a.src, Acc: acc})
		for _, k := range []ildp.Kind{ildp.KindCondBranch, ildp.KindCallTransCond} {
			for _, op := range []alpha.Op{alpha.OpBEQ, alpha.OpBNE, alpha.OpBLT, alpha.OpBLBS} {
				add(fmt.Sprintf("%v %v %s", k, op, a.name), ildp.Inst{
					Kind: k, Op: op, SrcA: a.src, Acc: acc, VAddr: formTarget, Class: ildp.ClassCore,
				})
			}
		}
	}
	for _, d := range formDests {
		add(fmt.Sprintf("copy-to-gpr r%d", d), ildp.Inst{Kind: ildp.KindCopyToGPR, Acc: acc, Dest: d})
		add(fmt.Sprintf("save-vra r%d", d), ildp.Inst{Kind: ildp.KindSaveVRA, Dest: d, VAddr: formReturn})
	}
	add("load-eta", ildp.Inst{Kind: ildp.KindLoadETA, Acc: acc, WritesAcc: true, VAddr: formTarget})
	add("set-vpc", ildp.Inst{Kind: ildp.KindSetVPC, VAddr: formVStart})
	add("dispatch-op", ildp.Inst{Kind: ildp.KindDispatchOp, Op: alpha.OpXOR})
	add("push-dual-ras translated", ildp.Inst{Kind: ildp.KindPushRAS, VAddr: formReturn})
	add("push-dual-ras untranslated", ildp.Inst{Kind: ildp.KindPushRAS, VAddr: formTarget})
	add("branch", ildp.Inst{Kind: ildp.KindBranch, VAddr: formTarget})
	add("call-translator", ildp.Inst{Kind: ildp.KindCallTrans, VAddr: formTarget})
	add("jump-indirect", ildp.Inst{Kind: ildp.KindJumpInd, SrcA: ildp.GPRSrc(ildp.RegJTarget)})
	// An ALU on two immediates is folded at install; an undefined
	// operation must still fail at execution as it always did.
	add("alu undefined imm,imm", ildp.Inst{Kind: ildp.KindALU, Op: alpha.OpLDQ,
		SrcA: ildp.ImmSrc(1), SrcB: ildp.ImmSrc(2), Acc: acc, WritesAcc: true, Dest: 7})
	add("alu undefined gpr,gpr", ildp.Inst{Kind: ildp.KindALU, Op: alpha.OpLDQ,
		SrcA: ildp.GPRSrc(5), SrcB: ildp.GPRSrc(6), Acc: acc, WritesAcc: true, Dest: 7})
	// A trapping load and store that must materialise an accumulator-only
	// architected value (§2.2).
	cases = append(cases,
		formCase{name: "trapping load with recovery", inst: ildp.Inst{
			Kind: ildp.KindLoad, Op: alpha.OpLDQ, SrcA: ildp.GPRSrc(5), Disp: 3,
			Acc: acc, WritesAcc: true, Dest: 7, Frag: ildp.NoFrag, Class: ildp.ClassCore,
		}, pairs: []translate.RegAcc{{Reg: 9, Acc: 2}}},
		formCase{name: "trapping store with recovery", inst: ildp.Inst{
			Kind: ildp.KindStore, Op: alpha.OpSTL, SrcA: ildp.AccSrc(), SrcB: ildp.GPRSrc(6), Disp: 2,
			Acc: acc, Frag: ildp.NoFrag, Class: ildp.ClassCore,
		}, pairs: []translate.RegAcc{{Reg: 9, Acc: 2}, {Reg: 10, Acc: 3}}},
	)
	return cases
}

// TestLoweredOperandForms runs every case from a state of distinct
// aligned values and from an all-zero state, so each condition is seen
// both ways.
func TestLoweredOperandForms(t *testing.T) {
	cases := formCases()
	for _, c := range cases {
		for _, zero := range []bool{false, true} {
			runForm(t, c, zero)
		}
	}
	t.Logf("%d cases", len(cases))
}

// TestLoweredInvalidFails runs an instruction with no lowered form (an
// accumulator write past the file): the executor stops with an error
// naming it and charges the executed prefix, the failing instruction
// included.
func TestLoweredInvalidFails(t *testing.T) {
	v := New(mem.New(), DefaultConfig())
	f, err := v.tc.Install(&translate.Result{VStart: formVStart, Insts: []ildp.Inst{
		{Kind: ildp.KindSetVPC, VAddr: formVStart, Frag: ildp.NoFrag, Class: ildp.ClassSpecial},
		{Kind: ildp.KindALU, Op: alpha.OpADDQ, SrcA: ildp.ImmSrc(1), SrcB: ildp.GPRSrc(2),
			Acc: ildp.MaxAccumulators, WritesAcc: true, Dest: alpha.RegZero, Frag: ildp.NoFrag},
		{Kind: ildp.KindCallTrans, VAddr: formExit, Frag: ildp.NoFrag, Class: ildp.ClassChain},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.execTranslated(f)
	if err == nil || !strings.Contains(err.Error(), "cannot execute alu") {
		t.Fatalf("got %v, want a cannot-execute error", err)
	}
	if v.Stats.TransIInsts != 2 {
		t.Errorf("charged %d I-instructions, want 2", v.Stats.TransIInsts)
	}
}
