package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// A run sets its workload up at least setupMinReps times, and more until
// setupMinTime has passed; setup_s is the median, so a few slow set-ups do
// not move it. The time floor gives short set-ups more samples.
const (
	setupMinReps = 5
	setupMinTime = 3 * time.Second
)

// bench is one workload after set-up.
type bench interface {
	// measure runs ops until about d has passed (at least one full round
	// of the workload's guests) and returns what they did. A non-nil tr
	// records spans around every layer call the ops make.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// layers runs the traced-only replays and probes that complete the
	// per-layer picture after a traced measure; ph is that measure.
	layers(tr *tracer, ph *phase) error
	close()
}

// setupFunc builds a workload from the run's options, charging its
// assembler and oracle time to sc.
type setupFunc func(opts options, sc *setupCost) (bench, error)

var workloads = map[string]setupFunc{
	"steady":    setupSteady,
	"coldstart": setupColdstart,
	"paper":     setupPaper,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupCost is what one set-up spent.
type setupCost struct {
	total     time.Duration
	assemble  time.Duration
	oracle    time.Duration
	emuInsts  uint64
	oracleRun time.Duration // the part of oracle spent inside emu.CPU.Run
	cal       []float64     // calibration times taken right after the set-up
}

// runReport is a finished run: its metrics and the ops behind them.
type runReport struct {
	workload          string
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]int
	raw               string // the unscaled end-to-end timings, for the summary
}

func (r *runReport) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// runWorkload sets the workload up repeatedly, measures it, and checks the
// exact counts against every earlier run of this binary with the same
// seed.
func runWorkload(opts options, logw io.Writer) (*runReport, error) {
	setup := workloads[opts.workload]
	var b bench
	var costs []setupCost
	for first := time.Now(); len(costs) < setupMinReps || time.Since(first) < setupMinTime; {
		// Each set-up starts on a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		var sc setupCost
		start := time.Now()
		nb, err := setup(opts, &sc)
		sc.total = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", opts.workload, err)
		}
		for j := 0; j < 5; j++ {
			sc.cal = append(sc.cal, ms(calibrate()))
		}
		if b != nil {
			b.close()
		}
		b = nb
		costs = append(costs, sc)
	}
	defer b.close()

	rep := &runReport{workload: opts.workload, metrics: map[string]float64{}, samples: map[string]int{}}
	d := time.Duration(opts.seconds * float64(time.Second))
	var phases []*phase
	if !opts.trace {
		ph, err := b.measure(d, nil)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		endToEndMetrics(rep, costs, ph)
	} else {
		plain, err := b.measure(d/2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := b.measure(d/2, tr)
		if err != nil {
			return nil, err
		}
		if err := b.layers(tr, traced); err != nil {
			return nil, err
		}
		phases = append(phases, plain, traced)
		layerMetrics(rep, costs, plain, traced, tr)
		if err := tr.write(filepath.Join(opts.stateDir, "spans",
			fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed))); err != nil {
			return nil, err
		}
	}

	counts := map[string]opCounts{}
	for _, ph := range phases {
		rep.attempted += ph.attempted
		rep.failed += ph.failed
		ph.logFailures(logw)
		for k, c := range ph.counts {
			if first, ok := counts[k]; ok && first != c {
				return nil, fmt.Errorf("exact counts of %s differ between the run's halves: %+v, then %+v", k, first, c)
			}
			counts[k] = c
		}
	}
	if err := checkCountBaseline(opts, counts, logw); err != nil {
		return nil, err
	}
	return rep, nil
}

// endToEndMetrics fills the --trace 0 metrics from one untraced phase.
// Each op's time is scaled to the reference host speed by the calibrations
// taken beside it; the raw wall-clock values go to rep.raw. A round runs
// every guest once, so each round sees the same mix of ops; the op_ms
// quantiles and vinsts_per_s are medians over rounds of the round's own
// figure, which a host hiccup during a few rounds does not move. Their
// sample count is the number of rounds.
func endToEndMetrics(rep *runReport, costs []setupCost, ph *phase) {
	var setups, rawSetups []float64
	for _, c := range costs {
		rawSetups = append(rawSetups, c.total.Seconds())
		setups = append(setups, c.total.Seconds()*speedFactor(c.cal))
	}
	scaled := ph.scaledOpMs()
	var rounds [][]int // op indices per round
	for i, r := range ph.opRound {
		for len(rounds) <= r {
			rounds = append(rounds, nil)
		}
		rounds[r] = append(rounds[r], i)
	}
	var p50s, p90s, rawP50s, rawP90s, vps, rawVps []float64
	for _, ops := range rounds {
		if len(ops) == 0 {
			continue
		}
		var t, raw []float64
		var vinsts uint64
		for _, i := range ops {
			t, raw = append(t, scaled[i]), append(raw, ph.opMs[i])
			vinsts += ph.opVInsts[i]
		}
		p50s, p90s = append(p50s, quantile(t, 0.5)), append(p90s, quantile(t, 0.9))
		rawP50s, rawP90s = append(rawP50s, quantile(raw, 0.5)), append(rawP90s, quantile(raw, 0.9))
		vps = append(vps, float64(vinsts)/sum(t)*1000)
		rawVps = append(rawVps, float64(vinsts)/sum(raw)*1000)
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.set("vinsts_per_s", median(vps), len(vps))
	rep.set("op_ms.p50", median(p50s), len(p50s))
	rep.set("op_ms.p90", median(p90s), len(p90s))
	rep.set("heap_live_mb", float64(ph.heapMax)/(1<<20), ph.heapSamples)
	rep.raw = fmt.Sprintf("raw wall clock: setup_s %.6g, vinsts_per_s %.6g, op_ms.p50 %.6g, op_ms.p90 %.6g; "+
		"%d rounds, %d calibrations, mean speed factor %.4f", median(rawSetups), median(rawVps),
		median(rawP50s), median(rawP90s), len(p50s), len(ph.cal), sum(scaled)/sum(ph.opMs))
}

// phase is the outcome of one measure call.
type phase struct {
	// Per successful op: its time, end, round and guest V-insts.
	opMs     []float64
	opEnd    []time.Time
	opRound  []int
	opVInsts []uint64

	attempted, failed int
	failures          []string
	heapMax           uint64
	heapSamples       int
	cal               []float64 // calibration times in ms
	calAt             []time.Time

	// counts holds the exact simulated counts of one op per guest key;
	// every later op of the same guest must reproduce them.
	counts map[string]opCounts
	// vm sums the Stats of the VMs the ops ran, with their vm.Run time.
	vm vmTotals
}

func newPhase() *phase { return &phase{counts: map[string]opCounts{}} }

// addOp records one successful op.
func (ph *phase) addOp(elapsed time.Duration, end time.Time, round int, vinsts uint64) {
	ph.opMs = append(ph.opMs, ms(elapsed))
	ph.opEnd = append(ph.opEnd, end)
	ph.opRound = append(ph.opRound, round)
	ph.opVInsts = append(ph.opVInsts, vinsts)
}

// fail counts one failed op and names why.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
}

// calibrateEvery runs the calibration between ops, once per calEvery.
func (ph *phase) calibrateEvery() {
	if n := len(ph.calAt); n == 0 || time.Since(ph.calAt[n-1]) >= calEvery {
		ph.cal = append(ph.cal, ms(calibrate()))
		ph.calAt = append(ph.calAt, time.Now())
	}
}

// scaledOpMs scales each op's time by the host speed the calibrations
// within calWindow of its end show, or, if there are none, by all of the
// phase's calibrations.
func (ph *phase) scaledOpMs() []float64 {
	all := speedFactor(ph.cal)
	out := make([]float64, len(ph.opMs))
	for i, v := range ph.opMs {
		out[i] = v * all
		var near []float64
		for j, at := range ph.calAt {
			if d := at.Sub(ph.opEnd[i]); -calWindow <= d && d <= calWindow {
				near = append(near, ph.cal[j])
			}
		}
		if len(near) > 0 {
			out[i] = v * speedFactor(near)
		}
	}
	return out
}

// maxLoggedFailures bounds the failure lines written; the count is exact.
const maxLoggedFailures = 50

func (ph *phase) logFailures(w io.Writer) {
	for i, f := range ph.failures {
		if i == maxLoggedFailures {
			fmt.Fprintf(w, "... and %d more failed ops\n", len(ph.failures)-i)
			break
		}
		fmt.Fprintln(w, "FAILED:", f)
	}
}

// sampleHeap collects garbage and records the live heap. Called at an op
// boundary while the op's VM is still referenced, it measures that VM's
// footprint on top of the workload's retained state; forcing the
// collection makes the reading independent of when the runtime would
// have collected on its own.
func (ph *phase) sampleHeap() {
	runtime.GC()
	s := [1]rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s[:])
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		ph.heapMax = max(ph.heapMax, s[0].Value.Uint64())
		ph.heapSamples++
	}
}

// record checks one op's exact counts against the first op of the same
// guest.
func (ph *phase) record(key string, c opCounts) error {
	first, seen := ph.counts[key]
	if !seen {
		ph.counts[key] = c
		return nil
	}
	if first != c {
		return fmt.Errorf("%s: counts %+v differ from the first op's %+v", key, c, first)
	}
	return nil
}

// opCounts are the simulated counts of one op: deterministic for a guest,
// so they must repeat exactly on every op and every run with the seed.
type opCounts struct {
	VInsts       uint64 `json:"vinsts"`
	InterpInsts  uint64 `json:"interp_insts"`
	Fragments    uint64 `json:"fragments"`
	StoreLookups uint64 `json:"store_lookups"` // hits + misses
	StoreMisses  uint64 `json:"store_misses"`
}

func countsOf(s *vm.Stats) opCounts {
	return opCounts{
		VInsts:       s.TotalVInsts(),
		InterpInsts:  s.InterpInsts,
		Fragments:    uint64(s.Fragments),
		StoreLookups: s.StoreHits + s.StoreMisses,
		StoreMisses:  s.StoreMisses,
	}
}

// checkCountBaseline compares the run's exact counts with the baseline an
// earlier run of the same executable and seed wrote, or writes it.
func checkCountBaseline(opts options, counts map[string]opCounts, logw io.Writer) error {
	exe, err := executableDigest()
	if err != nil {
		return err
	}
	path := filepath.Join(opts.stateDir, "counts",
		fmt.Sprintf("%s-seed%d-%s.json", opts.workload, opts.seed, exe))
	if data, err := os.ReadFile(path); err == nil {
		var base map[string]opCounts
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("count baseline %s: %w", path, err)
		}
		for k, c := range counts {
			if b, ok := base[k]; ok && b != c {
				return fmt.Errorf("exact counts of %s differ from an earlier run with seed %d: %+v, baseline %+v",
					k, opts.seed, c, b)
			}
		}
		fmt.Fprintf(logw, "exact counts match the baseline %s\n", path)
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(counts, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "counts-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// executableDigest names the running binary by content, so a baseline is
// only compared against runs of the same code.
func executableDigest() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// vmTotals sums VM statistics over ops, with the vm.Run time they took.
type vmTotals struct {
	ops          int
	run          time.Duration
	interp       uint64
	transV       uint64
	fragEntries  uint64
	dispatch     uint64
	chainHits    uint64
	chainLookups uint64
	fragments    uint64
	verified     uint64
	proved       uint64
	storeHits    uint64
	storeMisses  uint64
}

func (t *vmTotals) add(s *vm.Stats, run time.Duration) {
	t.ops++
	t.run += run
	t.interp += s.InterpInsts
	t.transV += s.TransVInsts
	t.fragEntries += s.FragEntries
	t.dispatch += s.DispatchRuns
	t.chainHits += s.SWPredHits + s.RASHits
	t.chainLookups += s.SWPredHits + s.SWPredMisses + s.RASHits + s.RASMisses
	t.fragments += uint64(s.Fragments)
	t.verified += uint64(s.FragsVerified)
	t.proved += uint64(s.FragsProved)
	t.storeHits += s.StoreHits
	t.storeMisses += s.StoreMisses
}

// guest is one guest program with its oracle state.
type guest struct {
	key    string // "<stand-in>/<data seed>", names the guest in failures and counts
	spec   *workload.Spec
	prog   *alphaprog.Program
	budget int64 // V-inst budget per op; 0 runs to completion
	want   archState
}

// assembleGuests assembles the specs into guests, timing the assembler.
func assembleGuests(specs []*workload.Spec, seeds []uint64, sc *setupCost) ([]*guest, error) {
	var out []*guest
	for i, spec := range specs {
		start := time.Now()
		prog, err := spec.Program()
		sc.assemble += time.Since(start)
		if err != nil {
			return nil, err
		}
		out = append(out, &guest{key: fmt.Sprintf("%s/%d", spec.Name, seeds[i]), spec: spec, prog: prog})
	}
	return out, nil
}

// runOracle interprets the guest with the emu reference interpreter for
// exactly n instructions (0: to completion) and keeps the final state.
func runOracle(g *guest, n int64, sc *setupCost) error {
	start := time.Now()
	cpu := emu.New(mem.New())
	if err := cpu.LoadProgram(g.prog); err != nil {
		return err
	}
	runStart := time.Now()
	err := cpu.Run(n)
	sc.oracleRun += time.Since(runStart)
	sc.oracle += time.Since(start)
	sc.emuInsts += cpu.InstCount
	if err != nil && !(n > 0 && errors.Is(err, emu.ErrInstLimit)) {
		return fmt.Errorf("oracle %s: %w", g.key, err)
	}
	g.want = cpuState(cpu, cpu.InstCount)
	return nil
}

// archState is the architected state the oracle check compares.
type archState struct {
	pc      uint64
	reg     [alpha.NumRegs]uint64
	halted  bool
	exit    uint64
	console string
	mem     *mem.Memory
	vinsts  uint64
}

func cpuState(c *emu.CPU, vinsts uint64) archState {
	return archState{pc: c.PC, reg: c.Reg, halted: c.Halted, exit: c.ExitStatus,
		console: string(c.Console), mem: c.Mem, vinsts: vinsts}
}

func vmState(v *vm.VM) archState { return cpuState(v.CPU(), v.Stats.TotalVInsts()) }

// diff names the first way got differs from the oracle state.
func (want *archState) diff(got archState) error {
	switch {
	case got.vinsts != want.vinsts:
		return fmt.Errorf("retired %d V-insts, oracle %d", got.vinsts, want.vinsts)
	case got.halted != want.halted || got.exit != want.exit:
		return fmt.Errorf("halted/exit %v/%d, oracle %v/%d", got.halted, got.exit, want.halted, want.exit)
	case got.pc != want.pc:
		return fmt.Errorf("PC %#x, oracle %#x", got.pc, want.pc)
	case got.console != want.console:
		return fmt.Errorf("console %q, oracle %q", got.console, want.console)
	}
	for r := range want.reg {
		if got.reg[r] != want.reg[r] {
			return fmt.Errorf("R%d = %#x, oracle %#x", r, got.reg[r], want.reg[r])
		}
	}
	if ok, addr := mem.Equal(got.mem, want.mem); !ok {
		return fmt.Errorf("memory differs at %#x", addr)
	}
	return nil
}

// dataSeed derives the k-th guest data seed of a run; never 0, which is
// the canonical data set of the committed reports.
func dataSeed(seed uint64, k int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x | 1
}

// standIns generates every SPEC stand-in at scale, one data seed each.
func standIns(scale int, seeds func(i int) uint64) ([]*workload.Spec, []uint64, error) {
	var specs []*workload.Spec
	var used []uint64
	for i, name := range workload.Names() {
		s := seeds(i)
		spec, err := workload.ByNameSeeded(name, scale, s)
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, spec)
		used = append(used, s)
	}
	return specs, used, nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
