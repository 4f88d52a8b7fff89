package main

import (
	"errors"
	"runtime"
	"time"

	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/vm"
)

// steadyScale makes translated code retire over 99% of the stand-ins'
// V-insts under the paper's baseline configuration.
const steadyScale = 8

// vmBench runs each guest in a fresh VM per op: the steady and coldstart
// workloads, which differ in their guests and VM configuration.
type vmBench struct {
	name   string
	guests []*guest
	// config builds the VM configuration of one op.
	config func() vm.Config
}

func setupSteady(opts options, sc *setupCost) (bench, error) {
	specs, seeds, err := standIns(steadyScale, func(i int) uint64 { return dataSeed(opts.seed, i) })
	if err != nil {
		return nil, err
	}
	guests, err := assembleGuests(specs, seeds, sc)
	if err != nil {
		return nil, err
	}
	for _, g := range guests {
		if err := runOracle(g, 0, sc); err != nil {
			return nil, err
		}
	}
	return &vmBench{name: "steady", guests: guests, config: vm.DefaultConfig}, nil
}

// measure runs whole rounds over the guests, one op per guest, until d
// has passed.
func (b *vmBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	xc := xlateOf(b.config())
	start := time.Now()
	for op, round := 0, 0; round == 0 || time.Since(start) < d; round++ {
		for _, g := range b.guests {
			v := b.runOp(ph, g, op, round, tr)
			ph.calibrateEvery()
			if round == 0 && v != nil {
				// Every guest's footprint, once per phase.
				ph.sampleHeap()
				runtime.KeepAlive(v)
			}
			if tr != nil && v != nil {
				if err := tr.replayFragments(op, v, xc); err != nil {
					return nil, err
				}
				if err := tr.replayCheckpoint(op, v); err != nil {
					return nil, err
				}
			}
			op++
		}
	}
	return ph, nil
}

// runOp boots g in a fresh VM, runs it to its budget, and checks the
// result against the oracle. It returns the finished VM, or nil if the op
// failed.
func (b *vmBench) runOp(ph *phase, g *guest, op, round int, tr *tracer) *vm.VM {
	ph.attempted++
	opSpan := tr.begin("op", -1, op)
	start := time.Now()
	s := tr.begin("vm.New", opSpan, op)
	v := vm.New(mem.New(), b.config())
	err := v.LoadProgram(g.prog)
	tr.end(s)
	runStart := time.Now()
	if err == nil {
		s = tr.begin("vm.Run", opSpan, op)
		err = v.Run(g.budget)
		tr.end(s)
	}
	end := time.Now()
	tr.end(opSpan)
	run := end.Sub(runStart)
	elapsed := end.Sub(start)

	if err != nil && !(g.budget > 0 && errors.Is(err, vm.ErrBudget)) {
		ph.fail("%s op %d (%s): %v", b.name, op, g.key, err)
		return nil
	}
	if derr := g.want.diff(vmState(v)); derr != nil {
		ph.fail("%s op %d (%s): %v", b.name, op, g.key, derr)
		return nil
	}
	if err := ph.record(b.name+":"+g.key, countsOf(&v.Stats)); err != nil {
		ph.fail("%s op %d: %v", b.name, op, err)
		return nil
	}
	ph.addOp(elapsed, end, round, v.Stats.TotalVInsts())
	ph.vm.add(&v.Stats, run)
	return v
}

// layers adds the probes for the layers steady and coldstart ops do not
// reach: the timing models, serving, and the experiments runner.
func (b *vmBench) layers(tr *tracer, _ *phase) error {
	for _, g := range b.guests {
		if err := tr.probeUarch(g); err != nil {
			return err
		}
	}
	if err := tr.probeServe(b.guests); err != nil {
		return err
	}
	return tr.probeExperiments(b.guests[0])
}

func (b *vmBench) close() {}

// coldBudget is the V-inst budget of one coldstart op: long enough for a
// few superblocks to get hot, short enough that pre-hot interpretation,
// VM construction and translation dominate.
const coldBudget = 10_000

// coldDataSeeds is how many data seeds of every stand-in coldstart boots.
const coldDataSeeds = 4

func setupColdstart(opts options, sc *setupCost) (bench, error) {
	var guests []*guest
	for k := 0; k < coldDataSeeds; k++ {
		specs, seeds, err := standIns(1, func(i int) uint64 { return dataSeed(opts.seed, 100*k+i) })
		if err != nil {
			return nil, err
		}
		gs, err := assembleGuests(specs, seeds, sc)
		if err != nil {
			return nil, err
		}
		guests = append(guests, gs...)
	}
	b := &vmBench{name: "coldstart", guests: guests, config: coldConfig}
	for _, g := range guests {
		g.budget = coldBudget
		// The VM stops at the first V-inst boundary it reaches at or past
		// the budget, which can be well past it inside chained code. One
		// calibration boot finds that count; the oracle then interprets
		// exactly as far, and every timed op must stop at the same count.
		v := vm.New(mem.New(), coldConfig())
		if err := v.LoadProgram(g.prog); err != nil {
			return nil, err
		}
		if err := v.Run(g.budget); err != nil && !errors.Is(err, vm.ErrBudget) {
			return nil, err
		}
		if err := runOracle(g, int64(v.Stats.TotalVInsts()), sc); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// coldConfig is a coldstart op's VM: the paper's baseline with both
// provers on and a fresh, empty fragment store.
func coldConfig() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Verify = true
	cfg.SemCheck = true
	cfg.Store = fragstore.New()
	return cfg
}
