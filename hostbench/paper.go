package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/report"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// paperReport is the committed report whose Fig. 8 cells the paper
// workload must reproduce exactly.
var paperReport = filepath.Join("reports", "experiments-scale2.json")

// fig8Series names the report series of each machine's IPC.
var fig8Series = map[experiments.Machine]string{
	experiments.Original:     "original",
	experiments.Straightened: "straightened",
	experiments.ILDPBasic:    "ildp_basic",
	experiments.ILDPModified: "ildp_modified",
}

// paperBench regenerates the headline figure: the experiments.Fig8 runs,
// one at a time, at the committed report's scale and threshold. The guests
// are the canonical data sets the report was made from, so the seed does
// not change them.
type paperBench struct {
	guests    []*guest
	threshold int
	golden    map[string]float64 // "<bench>/<series>" → IPC
}

func setupPaper(_ options, sc *setupCost) (bench, error) {
	data, err := os.ReadFile(paperReport)
	if err != nil {
		return nil, err
	}
	rep, err := report.Decode(data)
	if err != nil {
		return nil, err
	}
	golden := map[string]float64{}
	for _, r := range rep.Records {
		if r.Exp == "fig8" {
			golden[r.Bench+"/"+r.Series] = r.Value
		}
	}
	var specs []*workload.Spec
	var seeds []uint64
	for _, name := range rep.Meta.Workloads {
		spec, err := workload.ByName(name, rep.Meta.Scale)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
		seeds = append(seeds, 0)
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
	return &paperBench{guests: guests, threshold: rep.Meta.Threshold, golden: golden}, nil
}

// measure runs whole rounds of the 48 Fig. 8 cells until d has passed.
// Each cell's IPC must equal the report, and its VM's final state the
// oracle's.
func (b *paperBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	start := time.Now()
	for op, round := 0, 0; round == 0 || time.Since(start) < d; round++ {
		for _, g := range b.guests {
			for _, spec := range fig8Specs(g, b.threshold) {
				v := b.runCell(ph, g, spec, op, round, tr)
				ph.calibrateEvery()
				if round == 0 && v != nil {
					ph.sampleHeap()
					runtime.KeepAlive(v)
				}
				if tr != nil && v != nil && round == 0 {
					if err := tr.replayFragments(op, v, machineXlate(spec.Machine)); err != nil {
						return nil, err
					}
					if err := tr.replayCheckpoint(op, v); err != nil {
						return nil, err
					}
				}
				op++
			}
		}
	}
	return ph, nil
}

// runCell runs one Fig. 8 cell and checks it; it returns the cell's
// finished VM, or nil if the cell failed.
func (b *paperBench) runCell(ph *phase, g *guest, spec experiments.RunSpec, op, round int, tr *tracer) *vm.VM {
	ph.attempted++
	var v *vm.VM
	var attached time.Time
	spec.Attach = func(vv *vm.VM) { v, attached = vv, time.Now() }
	name := g.spec.Name + "/" + fig8Series[spec.Machine]
	opSpan := tr.begin(runMetricSeries[spec.Machine], -1, op)
	start := time.Now()
	out, err := experiments.Run(spec)
	end := time.Now()
	tr.end(opSpan)
	if err == nil {
		tr.add("vm.Run", attached, end, opSpan, op)
		err = b.checkIPC(g.spec.Name, spec.Machine, out)
	}
	if err == nil {
		err = g.want.diff(vmState(v))
	}
	if err == nil {
		err = ph.record("paper:"+name, countsOf(&out.VM))
	}
	if err != nil {
		ph.fail("paper %s: %v", name, err)
		return nil
	}
	ph.addOp(end.Sub(start), end, round, out.VM.TotalVInsts())
	ph.vm.add(&out.VM, end.Sub(attached))
	return v
}

// checkIPC requires the cell's IPC (and, for the modified machine, the
// native I-ISA IPC) to equal the committed report bit for bit.
func (b *paperBench) checkIPC(bench string, m experiments.Machine, out *experiments.Outcome) error {
	cells := map[string]float64{fig8Series[m]: out.Timing.IPC()}
	if m == experiments.ILDPModified {
		cells["native_iisa"] = out.Timing.NativeIPC()
	}
	for series, got := range cells {
		want, ok := b.golden[bench+"/"+series]
		if !ok {
			return fmt.Errorf("no %s/%s cell in %s", bench, series, paperReport)
		}
		if got != want {
			return fmt.Errorf("%s IPC %v, report %v", series, got, want)
		}
	}
	return nil
}

// fig8Specs are the four experiments.Fig8 runs of one workload.
func fig8Specs(g *guest, threshold int) []experiments.RunSpec {
	return []experiments.RunSpec{
		{Workload: g.spec, Machine: experiments.Original, Timing: true, HotThreshold: threshold},
		{Workload: g.spec, Machine: experiments.Straightened, Chain: translate.SWPredRAS,
			Timing: true, HotThreshold: threshold},
		{Workload: g.spec, Machine: experiments.ILDPBasic, Chain: translate.SWPredRAS,
			Timing: true, PEs: 8, HotThreshold: threshold},
		{Workload: g.spec, Machine: experiments.ILDPModified, Chain: translate.SWPredRAS,
			Timing: true, PEs: 8, HotThreshold: threshold},
	}
}

// runMetricSeries maps an experiments machine to its per-layer metric.
var runMetricSeries = map[experiments.Machine]string{
	experiments.Original:     "experiments.run_ms.original",
	experiments.Straightened: "experiments.run_ms.straightened",
	experiments.ILDPBasic:    "experiments.run_ms.ildp_basic",
	experiments.ILDPModified: "experiments.run_ms.ildp_modified",
}

// machineXlate is the translation configuration experiments.Run gives a
// machine's VM.
func machineXlate(m experiments.Machine) xlateConfig {
	xc := xlateConfig{form: ildp.Modified, chain: translate.SWPredRAS}
	switch m {
	case experiments.Straightened:
		xc.straighten = true
	case experiments.ILDPBasic:
		xc.form = ildp.Basic
	}
	return xc
}

// layers adds the timing-model and serving probes on the paper's guests.
func (b *paperBench) layers(tr *tracer, _ *phase) error {
	for _, g := range b.guests {
		if err := tr.probeUarch(g); err != nil {
			return err
		}
		tr.timed("vm.New", -1, -1, func() {
			_ = vm.New(mem.New(), vm.DefaultConfig()).LoadProgram(g.prog)
		})
	}
	return tr.probeServe(b.guests)
}

func (b *paperBench) close() {}
