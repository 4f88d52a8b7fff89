package vm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// The executor builds trace records only when a sink is attached and
// charges translated-instruction counts once per fragment exit. These
// tests pin both shortcuts: a run with a sink and a run without one must
// agree on every statistic, on architected state and on memory, and the
// sink's record stream must reconcile with the exit-charged counts.

// latticeConfig is one point of the configuration lattice the sink
// equivalence sweep covers.
type latticeConfig struct {
	form       ildp.Form
	chain      translate.ChainMode
	straighten bool
	numAcc     int
}

func (c latticeConfig) String() string {
	s := fmt.Sprintf("%v/%v/acc%d", c.form, c.chain, c.numAcc)
	if c.straighten {
		s += "/straight"
	}
	return s
}

func (c latticeConfig) vmConfig() Config {
	cfg := DefaultConfig()
	cfg.Form, cfg.Chain, cfg.Straighten, cfg.NumAcc = c.form, c.chain, c.straighten, c.numAcc
	cfg.HotThreshold = 10
	return cfg
}

func configLattice() []latticeConfig {
	var out []latticeConfig
	for _, form := range []ildp.Form{ildp.Basic, ildp.Modified} {
		for _, chain := range []translate.ChainMode{translate.NoPred, translate.SWPred, translate.SWPredRAS} {
			for _, straighten := range []bool{false, true} {
				for _, numAcc := range []int{2, 8} {
					out = append(out, latticeConfig{form, chain, straighten, numAcc})
				}
			}
		}
	}
	return out
}

// sinkRun is one run of a sink pair: the finished VM, the run's error,
// and what its Poll hook saw.
type sinkRun struct {
	v   *VM
	err error
	// polls digests the translated counts seen at every Poll call, the
	// boundaries where Stop, the watchdog and the telemetry plane also
	// read Stats.
	polls uint64
	// lag is the first Poll at which the counts trailed the records the
	// sink had already received ("" if none): counts must be charged
	// before anything can observe them.
	lag string
}

// sinkPair runs prog twice under cfg, detached and with a counting sink,
// on fresh memory from newMem.
func sinkPair(t *testing.T, prog *alphaprog.Program, cfg Config, newMem func() *mem.Memory) (off, on sinkRun, sink *trace.Counter) {
	t.Helper()
	run := func(cfg Config, sink *trace.Counter) sinkRun {
		var r sinkRun
		r.polls = 14695981039346656037
		cfg.Poll = func() {
			s := &r.v.Stats
			for _, x := range []uint64{s.TransIInsts, s.TransVInsts, s.CopiesExecuted, s.FragEntries} {
				r.polls = (r.polls ^ x) * 1099511628211
			}
			if sink == nil || r.lag != "" {
				return
			}
			// Between charging an exit and entering the next fragment,
			// at most two records are outstanding: the exiting branch
			// and the dispatch routine's final jump.
			if d := int64(s.TransIInsts) - int64(sink.Recs); d < 0 || d > 2 || s.TransVInsts < sink.VCredit {
				r.lag = fmt.Sprintf("TransIInsts %d, TransVInsts %d with %d records, %d credit delivered",
					s.TransIInsts, s.TransVInsts, sink.Recs, sink.VCredit)
			}
		}
		if sink != nil {
			cfg.Sink = sink
		}
		r.v = New(newMem(), cfg)
		if err := r.v.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		r.err = r.v.Run(50_000_000)
		return r
	}
	sink = &trace.Counter{}
	return run(cfg, nil), run(cfg, sink), sink
}

// assertSinkInvisible checks that the sink-attached run matches the
// detached one exactly, at every Poll and at the end, and that the sink
// saw one record per translated I-instruction, carrying exactly the
// translated V-instruction credit. trapped says the run ended in a
// precise trap inside translated code: the faulting I-instruction is
// counted as executed but never commits, so it has no record.
func assertSinkInvisible(t *testing.T, off, on sinkRun, sink *trace.Counter, trapped bool) {
	t.Helper()
	if !reflect.DeepEqual(off.v.Stats, on.v.Stats) {
		t.Errorf("stats differ with a sink attached:\n detached %+v\n attached %+v", off.v.Stats, on.v.Stats)
	}
	if off.polls != on.polls {
		t.Error("Poll saw different counts with a sink attached")
	}
	if on.lag != "" {
		t.Errorf("Poll saw counts behind the trace: %s", on.lag)
	}
	a, b := off.v.CPU(), on.v.CPU()
	if a.Reg != b.Reg || a.PC != b.PC || a.Halted != b.Halted || a.ExitStatus != b.ExitStatus ||
		a.ConsoleString() != b.ConsoleString() {
		t.Errorf("architected state differs with a sink attached: PC %#x/%#x, exit %d/%d",
			a.PC, b.PC, a.ExitStatus, b.ExitStatus)
	}
	if eq, addr := mem.Equal(a.Mem, b.Mem); !eq {
		t.Errorf("memory differs with a sink attached at %#x", addr)
	}
	recs := sink.Recs
	if trapped {
		recs++
	}
	if recs != on.v.Stats.TransIInsts {
		t.Errorf("sink saw %d records (trapped %v), TransIInsts = %d", sink.Recs, trapped, on.v.Stats.TransIInsts)
	}
	if sink.VCredit != on.v.Stats.TransVInsts {
		t.Errorf("sink V-credit %d, TransVInsts = %d", sink.VCredit, on.v.Stats.TransVInsts)
	}
}

// TestSinkEquivalenceLattice runs every stand-in at scale 1 under every
// point of the lattice (form x chain mode x straightening x accumulator
// count), detached and with a counting sink. -short keeps three
// stand-ins.
func TestSinkEquivalenceLattice(t *testing.T) {
	names := workload.Names()
	if testing.Short() {
		names = []string{"gzip", "mcf", "perlbmk"}
	}
	progs := make([]*alphaprog.Program, len(names))
	for i, name := range names {
		spec, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = spec.MustProgram()
	}
	for _, lc := range configLattice() {
		t.Run(lc.String(), func(t *testing.T) {
			for i, prog := range progs {
				off, on, sink := sinkPair(t, prog, lc.vmConfig(), mem.New)
				if off.err != nil || on.err != nil {
					t.Fatalf("%s: run failed: detached %v, attached %v", names[i], off.err, on.err)
				}
				if off.v.Stats.TransIInsts == 0 {
					t.Errorf("%s: nothing ran translated", names[i])
				}
				assertSinkInvisible(t, off, on, sink, false)
			}
		})
	}
}

// chainedTrap is a hot loop that calls a leaf whose load walks an array
// one quadword per call and eventually crosses into unmapped memory. By
// then the loop and the leaf are translated fragments chained to each
// other (direct link, RAS return or dispatch, depending on the chain
// mode), so the load faults inside chained translated code.
const chainedTrap = `
	.text 0x10000
start:
	ldiq  sp, 0x80000
	ldiq  a0, 0x20000
	clr   v0
	clr   s0
loop:
	bsr   leaf
	addq  s0, #1, s0
	and   s0, #3, t1
	bne   t1, loop
	xor   v0, s0, v0
	br    loop
leaf:
	ldq   t0, 0(a0)
	addq  v0, t0, v0
	lda   a0, 8(a0)
	ret
`

// TestTrapInChainedFragmentCounts checks the trap slow path: a load that
// faults inside a hot chained fragment leaves TotalVInsts equal to the
// number of instructions the emu oracle retired before the same trap,
// with or without a sink, in every form and chain mode.
func TestTrapInChainedFragmentCounts(t *testing.T) {
	prog := alphaasm.MustAssemble(chainedTrap)
	newMem := func() *mem.Memory {
		m := mem.New()
		m.Strict = true
		m.Map(0x20000, 0x1000) // one mapped page; 0x21000 faults
		m.Map(0x70000, 0x10000)
		return m
	}
	oracle := emu.New(newMem())
	if err := oracle.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	var oracleTrap *emu.Trap
	if err := oracle.Run(10_000_000); !errors.As(err, &oracleTrap) {
		t.Fatalf("oracle: expected a trap, got %v", err)
	}
	for _, lc := range configLattice() {
		t.Run(lc.String(), func(t *testing.T) {
			off, on, sink := sinkPair(t, prog, lc.vmConfig(), newMem)
			for _, r := range []struct {
				name string
				v    *VM
				err  error
			}{{"detached", off.v, off.err}, {"attached", on.v, on.err}} {
				var trap *emu.Trap
				if !errors.As(r.err, &trap) || trap.PC != oracleTrap.PC {
					t.Fatalf("%s: got %v, want the oracle's trap at %#x", r.name, r.err, oracleTrap.PC)
				}
				if got := r.v.Stats.TotalVInsts(); got != oracle.InstCount {
					t.Errorf("%s: TotalVInsts = %d, oracle retired %d", r.name, got, oracle.InstCount)
				}
				if r.v.Stats.FragEntries == 0 || r.v.Stats.TransVInsts < oracle.InstCount/2 {
					t.Errorf("%s: trap not reached in translated code: %+v", r.name, r.v.Stats)
				}
				for reg := alpha.Reg(0); reg < alpha.NumRegs; reg++ {
					if got, want := r.v.CPU().ReadReg(reg), oracle.ReadReg(reg); got != want {
						t.Errorf("%s: r%d = %#x, oracle %#x", r.name, reg, got, want)
					}
				}
			}
			assertSinkInvisible(t, off, on, sink, true)
		})
	}
}

// TestInterpStepSinkAllocs pins the interpreter's record path to zero
// allocations: with an InterpSink attached, each interpreted instruction
// builds one trace record on the stack. The loop body covers a
// conditional move, the one instruction with three source registers.
func TestInterpStepSinkAllocs(t *testing.T) {
	const src = `
	.text 0x10000
	.entry start
start:
	ldiq  t3, 1
	ldiq  fp, 0x20000
loop:
	cmoveq t0, t1, t2
	addq  t0, #1, t0
	stq   t0, 0(fp)
	ldq   t4, 0(fp)
	bne   t3, loop
`
	cfg := DefaultConfig()
	cfg.HotThreshold = 1 << 30 // interpret only
	cfg.InterpSink = &trace.Counter{}
	v := New(mem.New(), cfg)
	if err := v.LoadProgram(alphaasm.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	// Warm up: first touches of the code and data pages, and the loop
	// head's profiling counter.
	for i := 0; i < 20; i++ {
		if err := v.interpStep(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := v.interpStep(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("interpStep with an InterpSink: %v allocations per instruction, want 0", allocs)
	}
}
