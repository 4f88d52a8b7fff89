package tcache

import (
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

func res(vstart uint64, insts ...ildp.Inst) *translate.Result {
	return &translate.Result{VStart: vstart, Insts: insts}
}

func alu() ildp.Inst {
	return ildp.Inst{
		Kind: ildp.KindALU, Op: alpha.OpADDQ, Acc: 0, WritesAcc: true,
		SrcA: ildp.AccSrc(), SrcB: ildp.ImmSrc(1),
		Dest: alpha.RegZero, Frag: ildp.NoFrag,
	}
}

func exitTo(v uint64) ildp.Inst {
	return ildp.Inst{
		Kind: ildp.KindCallTrans, VAddr: v,
		Acc: ildp.NoAcc, Dest: alpha.RegZero, Frag: ildp.NoFrag,
	}
}

func condExitTo(v uint64) ildp.Inst {
	return ildp.Inst{
		Kind: ildp.KindCallTransCond, Op: alpha.OpBNE, SrcA: ildp.AccSrc(), Acc: 0,
		VAddr: v, Dest: alpha.RegZero, Frag: ildp.NoFrag,
	}
}

func TestInstallAndLookup(t *testing.T) {
	c := New(ildp.Modified)
	f, err := c.Install(res(0x1000, alu(), exitTo(0x2000)))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Lookup(0x1000); got != f {
		t.Error("Lookup did not find installed fragment")
	}
	if c.Lookup(0x2000) != nil {
		t.Error("Lookup found a phantom fragment")
	}
	if c.Frag(f.ID) != f || c.Frag(999) != nil || c.Frag(ildp.NoFrag) != nil {
		t.Error("Frag lookup wrong")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if _, err := c.Install(res(0x1000, alu(), exitTo(0x3000))); err == nil {
		t.Error("duplicate install accepted")
	}
}

func TestIAddrLayout(t *testing.T) {
	c := New(ildp.Modified)
	f, err := c.Install(res(0x1000, alu(), alu(), exitTo(0x2000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sizes) != 3 || cap(f.Sizes) != 3 {
		t.Fatalf("size array wrong: len %d cap %d", len(f.Sizes), cap(f.Sizes))
	}
	// Instructions are laid out contiguously from IAddr by encoded size.
	for i, size := range f.Sizes {
		if want := f.Insts[i].EncodedSize(ildp.Modified); int(size) != want {
			t.Errorf("Sizes[%d] = %d, want %d", i, size, want)
		}
	}
	// Fragments start after the dispatch routine.
	_, daddrs := c.Dispatch()
	if f.IAddr <= daddrs[len(daddrs)-1] {
		t.Error("fragment overlaps dispatch routine")
	}
}

func TestForwardPatch(t *testing.T) {
	c := New(ildp.Modified)
	// Fragment A exits to 0x2000, which is not yet translated.
	fa, err := c.Install(res(0x1000, alu(), condExitTo(0x2000), exitTo(0x3000)))
	if err != nil {
		t.Fatal(err)
	}
	if fa.Insts[1].Kind != ildp.KindCallTransCond {
		t.Fatal("exit should be call-translator before patching")
	}
	// Installing B at 0x2000 patches A's exit.
	fb, err := c.Install(res(0x2000, alu(), exitTo(0x4000)))
	if err != nil {
		t.Fatal(err)
	}
	if fa.Insts[1].Kind != ildp.KindCondBranch || fa.Insts[1].Frag != fb.ID {
		t.Errorf("exit not patched: %s", fa.Insts[1].String())
	}
	if c.Patches == 0 {
		t.Error("patch counter not incremented")
	}
}

func TestBackwardLinkAtInstall(t *testing.T) {
	c := New(ildp.Modified)
	fb, err := c.Install(res(0x2000, alu(), exitTo(0x9000)))
	if err != nil {
		t.Fatal(err)
	}
	// A fragment whose exit targets the already-installed B links
	// immediately.
	fa, err := c.Install(res(0x1000, alu(), exitTo(0x2000)))
	if err != nil {
		t.Fatal(err)
	}
	if fa.Insts[1].Kind != ildp.KindBranch || fa.Insts[1].Frag != fb.ID {
		t.Errorf("exit not linked at install: %s", fa.Insts[1].String())
	}
}

func TestSelfLink(t *testing.T) {
	c := New(ildp.Modified)
	// A loop fragment whose conditional exit targets its own start.
	f, err := c.Install(res(0x1000, alu(), condExitTo(0x1000), exitTo(0x2000)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Insts[1].Kind != ildp.KindCondBranch || f.Insts[1].Frag != f.ID {
		t.Errorf("self-link failed: %s", f.Insts[1].String())
	}
}

func TestDispatchRoutineShape(t *testing.T) {
	c := New(ildp.Basic)
	insts, addrs := c.Dispatch()
	if len(insts) != DispatchLen {
		t.Fatalf("dispatch is %d instructions, want %d", len(insts), DispatchLen)
	}
	if len(addrs) != len(insts) {
		t.Fatal("address array mismatch")
	}
	if insts[len(insts)-1].Kind != ildp.KindJumpInd {
		t.Error("dispatch must end in an indirect jump")
	}
	for i := 0; i < len(insts)-1; i++ {
		if insts[i].IsControl() {
			t.Errorf("dispatch body inst %d is control", i)
		}
	}
}

func TestStraightenedLayoutUses4Bytes(t *testing.T) {
	c := New(ildp.Modified)
	r := res(0x1000, alu(), alu(), exitTo(0x2000))
	r.Straightened = true
	f, err := c.Install(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f.Sizes {
		if s != 4 {
			t.Errorf("straightened inst %d has size %d, want 4", i, s)
		}
	}
}

func TestCodeBytes(t *testing.T) {
	c := New(ildp.Modified)
	r := res(0x1000, alu(), exitTo(0x2000))
	r.CodeBytes = 42
	if _, err := c.Install(r); err != nil {
		t.Fatal(err)
	}
	if c.CodeBytes() != 42 {
		t.Errorf("CodeBytes = %d, want 42", c.CodeBytes())
	}
}

func TestCapacityFlush(t *testing.T) {
	c := New(ildp.Modified)
	c.SetCapacity(64)
	r1 := res(0x1000, alu(), exitTo(0x2000))
	r1.CodeBytes = 40
	if _, err := c.Install(r1); err != nil {
		t.Fatal(err)
	}
	r2 := res(0x2000, alu(), exitTo(0x3000))
	r2.CodeBytes = 40
	f2, err := c.Install(r2) // 40+40 > 64: flush first
	if err != nil {
		t.Fatal(err)
	}
	if c.Flushes != 1 {
		t.Errorf("flushes = %d, want 1", c.Flushes)
	}
	if c.Lookup(0x1000) != nil {
		t.Error("flushed fragment still resolvable")
	}
	if got := c.Lookup(0x2000); got != f2 {
		t.Error("post-flush install not resolvable")
	}
	if f2.ID != 0 {
		t.Errorf("post-flush IDs should restart: got %d", f2.ID)
	}
	// Reinstalling the flushed start address must work (second chance).
	r1b := res(0x1000, alu(), exitTo(0x2000))
	r1b.CodeBytes = 10
	f1b, err := c.Install(r1b)
	if err != nil {
		t.Fatal(err)
	}
	if f1b.Insts[1].Kind != ildp.KindBranch || f1b.Insts[1].Frag != f2.ID {
		t.Error("post-flush linking broken")
	}
}

func TestFlushKeepsDispatch(t *testing.T) {
	c := New(ildp.Basic)
	before, beforeAddrs := c.Dispatch()
	c.Flush()
	after, afterAddrs := c.Dispatch()
	if len(before) != len(after) || beforeAddrs[0] != afterAddrs[0] {
		t.Error("flush disturbed the dispatch routine")
	}
	// New fragments still land after dispatch.
	f, err := c.Install(res(0x1000, alu(), exitTo(0x2000)))
	if err != nil {
		t.Fatal(err)
	}
	if f.IAddr <= afterAddrs[len(afterAddrs)-1] {
		t.Error("post-flush fragment overlaps dispatch")
	}
}

func TestExitCounts(t *testing.T) {
	c := New(ildp.Modified)
	copyInst := ildp.Inst{Kind: ildp.KindCopyToGPR, Acc: 0, Dest: alpha.RegT0,
		Frag: ildp.NoFrag, Class: ildp.ClassCopy, Usage: ildp.UsageLiveOut}
	core := alu()
	core.VCredit = 1
	core.Usage = ildp.UsageLocal
	f, err := c.Install(res(0x1000, core, condExitTo(0x2000), copyInst, core, exitTo(0x3000)))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := f.Exit(0, 1)
	if !ok {
		t.Fatal("first control transfer not recorded")
	}
	want := ExitCounts{IInsts: 2, VInsts: 1}
	want.Class[ildp.ClassCore] = 2
	want.Usage[ildp.UsageLocal] = 1
	if *e != want {
		t.Errorf("exit 0 = %+v, want %+v", *e, want)
	}
	e, ok = f.Exit(1, 4)
	if !ok {
		t.Fatal("second control transfer not recorded")
	}
	want = ExitCounts{IInsts: 5, VInsts: 2, Copies: 1}
	want.Class[ildp.ClassCore] = 4
	want.Class[ildp.ClassCopy] = 1
	want.Usage[ildp.UsageLocal] = 2
	want.Usage[ildp.UsageLiveOut] = 1
	if *e != want {
		t.Errorf("exit 1 = %+v, want %+v", *e, want)
	}
	if got := f.Prefix(4); got != want {
		t.Errorf("Prefix(4) = %+v, want the exit's %+v", got, want)
	}
	// Positions that are not the recorded exit fall back to Prefix.
	for _, tc := range []struct{ ord, idx int }{{0, 2}, {1, 1}, {2, 4}, {5, 9}} {
		if _, ok := f.Exit(tc.ord, tc.idx); ok {
			t.Errorf("Exit(%d, %d) matched a recorded exit", tc.ord, tc.idx)
		}
	}
	if got := f.Prefix(2); got.IInsts != 3 || got.Copies != 1 || got.VInsts != 1 {
		t.Errorf("Prefix(2) = %+v", got)
	}
	if got := f.Prefix(99); got != want {
		t.Errorf("Prefix past the end = %+v, want the whole fragment", got)
	}
	if got := f.Prefix(-1); got != (ExitCounts{}) {
		t.Errorf("Prefix(-1) = %+v, want zero", got)
	}
}

func TestDispatchCounts(t *testing.T) {
	c := New(ildp.Basic)
	d := c.DispatchCounts()
	if d.IInsts != DispatchLen || d.Class[ildp.ClassChain] != DispatchLen || d.VInsts != 0 || d.Copies != 0 {
		t.Errorf("dispatch counts %+v", d)
	}
}

func TestInstallRejectsOversizedFragment(t *testing.T) {
	c := New(ildp.Modified)
	long := make([]ildp.Inst, MaxFragInsts+1)
	for i := range long {
		long[i] = alu()
	}
	if _, err := c.Install(res(0x1000, long...)); err == nil {
		t.Error("fragment longer than MaxFragInsts installed")
	}
	bad := alu()
	bad.Class = ildp.NumClasses
	if _, err := c.Install(res(0x1000, bad, exitTo(0x2000))); err == nil {
		t.Error("out-of-range class installed")
	}
	if c.Len() != 0 {
		t.Errorf("rejected installs left %d fragments", c.Len())
	}
	// A fragment at the limit installs.
	if _, err := c.Install(res(0x1000, long[:MaxFragInsts]...)); err != nil {
		t.Errorf("fragment of MaxFragInsts rejected: %v", err)
	}
}

// TestReturnTargetCache checks push-dual-ras's cached return target: it
// is trusted only while its ID slot still holds a fragment starting at
// the return address, through invalidation, reinstallation and flush.
func TestReturnTargetCache(t *testing.T) {
	c := New(ildp.Modified)
	push := Lower([]ildp.Inst{{Kind: ildp.KindPushRAS, VAddr: 0x1000}})[0]
	if got := c.ReturnTarget(&push); got != ildp.NoFrag {
		t.Fatalf("untranslated return address resolved to %d", got)
	}
	a, _ := c.Install(res(0x1000, alu(), exitTo(0x2000)))
	if got := c.ReturnTarget(&push); got != a.ID || push.link() != a.ID {
		t.Fatalf("ReturnTarget = %d (cached %d), want %d", got, push.link(), a.ID)
	}
	c.Invalidate(a.ID)
	if got := c.ReturnTarget(&push); got != ildp.NoFrag {
		t.Fatalf("invalidated return target resolved to %d", got)
	}
	b, _ := c.Install(res(0x1000, alu(), exitTo(0x2000)))
	if got := c.ReturnTarget(&push); got != b.ID {
		t.Fatalf("reinstalled return target resolved to %d, want %d", got, b.ID)
	}
	c.Flush()
	other, _ := c.Install(res(0x3000, alu(), exitTo(0x2000)))
	if other.ID != b.ID && other.ID != a.ID {
		t.Fatalf("flush did not reuse ID slots (got %d)", other.ID)
	}
	if got := c.ReturnTarget(&push); got != ildp.NoFrag {
		t.Fatalf("cached ID of a flushed fragment resolved to %d", got)
	}
}

// TestLowerInvalid checks that an instruction the executor cannot run
// lowers to HInvalid, and that fields a kind ignores do not matter.
func TestLowerInvalid(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst ildp.Inst
		want Handler
	}{
		{"acc write past the file", ildp.Inst{Kind: ildp.KindALU, Op: alpha.OpADDQ, Acc: 8, WritesAcc: true}, HInvalid},
		{"source past the scratch file", ildp.Inst{Kind: ildp.KindALU, Op: alpha.OpADDQ, SrcA: ildp.GPRSrc(64), Dest: alpha.RegZero}, HInvalid},
		{"dest past the scratch file", ildp.Inst{Kind: ildp.KindSaveVRA, Dest: 70}, HInvalid},
		{"operation past Fn", ildp.Inst{Kind: ildp.KindLoad, Op: 300, Dest: alpha.RegZero}, HInvalid},
		{"unknown kind", ildp.Inst{Kind: 99}, HInvalid},
		{"immediate store, wide displacement", ildp.Inst{Kind: ildp.KindStore, Op: alpha.OpSTQ,
			SrcA: ildp.GPRSrc(1), SrcB: ildp.ImmSrc(5), Disp: 1 << 20}, HInvalid},
		{"immediate store", ildp.Inst{Kind: ildp.KindStore, Op: alpha.OpSTQ,
			SrcA: ildp.GPRSrc(1), SrcB: ildp.ImmSrc(5), Disp: -8}, HStoreImm},
		{"set-vpc ignores Op", ildp.Inst{Kind: ildp.KindSetVPC, Op: 300}, HNop},
		{"acc read wraps", ildp.Inst{Kind: ildp.KindALU, Op: alpha.OpADDQ, Acc: ildp.NoAcc,
			SrcA: ildp.AccSrc(), SrcB: ildp.ImmSrc(1), Dest: 3}, HALUImmB},
	} {
		if got := Lower([]ildp.Inst{tc.inst})[0].H; got != tc.want {
			t.Errorf("%s: handler %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFoldable pins foldable to the operations emu.EvalOp defines: an
// ALU operation on two immediates is evaluated at install only when
// EvalOp cannot panic on it.
func TestFoldable(t *testing.T) {
	for op := alpha.Op(0); op < 0x100; op++ {
		panics := func() (p bool) {
			defer func() { p = recover() != nil }()
			emu.EvalOp(op, 1, 2)
			return false
		}()
		if foldable(op) == panics {
			t.Errorf("%v: foldable %v, but EvalOp panics=%v", op, foldable(op), panics)
		}
	}
}

// TestSetInstRelowers changes installed instructions through SetInst:
// a change that keeps the instruction's PEI and control-transfer status
// re-lowers its slot, and one that makes it a PEI point shifts the PEI
// ordinals after it.
func TestSetInstRelowers(t *testing.T) {
	c := New(ildp.Modified)
	load := ildp.Inst{Kind: ildp.KindLoad, Op: alpha.OpLDQ, SrcA: ildp.AccSrc(), Acc: 0,
		WritesAcc: true, Dest: alpha.RegZero, Frag: ildp.NoFrag, Class: ildp.ClassCore}
	f, err := c.Install(res(0x1000, alu(), load, condExitTo(0x2000), exitTo(0x3000)))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Code()[1].Ord(); got != 0 {
		t.Fatalf("load's PEI ordinal %d, want 0", got)
	}
	changed := alu()
	changed.SrcB = ildp.ImmSrc(7)
	f.SetInst(0, changed)
	if err := f.CheckCode(); err != nil {
		t.Fatal(err)
	}
	if f.Code()[0].Imm != 7 {
		t.Errorf("re-lowered ALU immediate %d, want 7", f.Code()[0].Imm)
	}
	f.SetInst(0, load)
	if err := f.CheckCode(); err != nil {
		t.Fatal(err)
	}
	if got := f.Code()[1].Ord(); got != 1 {
		t.Errorf("after a PEI point was inserted before it, the load's ordinal is %d, want 1", got)
	}
}
