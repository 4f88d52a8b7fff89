package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/semcheck"
	"github.com/ildp/accdbt/internal/serve"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	// Values measured beside the spans.
	ckptBytes  int
	ckptRounds int
	ildpRecs   int
	ildpVInsts uint64
	oooRecs    int
	serve      serve.Stats
	// Store hits and lookups of the serve probe's sessions.
	serveHits, serveLookups uint64
	fragsByOp               []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span that was timed elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, op int, f func()) {
	i := t.begin(name, parent, op)
	f()
	t.end(i)
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	return time.Duration(sum), n
}

// mean is the mean duration of the spans called name in unit, with the
// span count; 0 when there are none.
func (t *tracer) mean(name string, unit time.Duration) (float64, int) {
	sum, n := t.total(name)
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n) / float64(unit), n
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// xlateConfig is the translation configuration of a VM, as the replay
// needs it to redo that VM's translations.
type xlateConfig struct {
	form       ildp.Form
	chain      translate.ChainMode
	straighten bool
}

func xlateOf(cfg vm.Config) xlateConfig {
	return xlateConfig{form: cfg.Form, chain: cfg.Chain, straighten: cfg.Straighten}
}

// replayFragments re-runs the translate-side layers on every fragment the
// finished VM installed: the source superblock is rebuilt from guest
// memory with semcheck.Reconstruct, then translated, verified, proved,
// addressed, published into a fresh store, fetched, cloned and installed
// into a fresh cache, each call in its own span.
func (t *tracer) replayFragments(op int, v *vm.VM, xc xlateConfig) error {
	m := v.CPU().Mem
	read := func(addr uint64) (alpha.Word, error) {
		w, err := m.Read32(addr)
		return alpha.Word(w), err
	}
	tc := v.TCache()
	store := fragstore.New()
	fresh := tcache.New(xc.form)
	tcfg := translate.Config{Form: xc.form, NumAcc: ildp.DefaultAccumulators, Chain: xc.chain}
	scfg := fragstore.Config{Translate: tcfg, Straighten: xc.straighten}
	frags := 0
	for id := 0; id < tc.Len(); id++ {
		f := tc.Frag(int32(id))
		if f == nil {
			continue
		}
		frags++
		var sb *translate.Superblock
		var err error
		t.timed("semcheck.Reconstruct", -1, op, func() { sb, err = semcheck.Reconstruct(read, semcheck.FromFragment(f)) })
		if err != nil {
			return fmt.Errorf("replay op %d: %w", op, err)
		}
		var res *translate.Result
		t.timed("translate.Translate", -1, op, func() {
			if xc.straighten {
				res, err = translate.Straighten(sb, xc.chain)
			} else {
				res, err = translate.Translate(sb, tcfg)
			}
		})
		if err != nil {
			return fmt.Errorf("replay op %d: translating %#x: %w", op, sb.StartPC, err)
		}
		if !xc.straighten {
			t.timed("iverify.Verify", -1, op, func() {
				iverify.Verify(res, iverify.Config{Form: xc.form, NumAcc: tcfg.NumAcc, Chain: xc.chain})
			})
		}
		t.timed("semcheck.Check", -1, op, func() { semcheck.Check(sb, res) })
		var key fragstore.Key
		var content []byte
		t.timed("fragstore.KeyOf", -1, op, func() { key, content, err = fragstore.KeyOf(sb, scfg) })
		if err != nil {
			continue // no content address: the VM translates it privately
		}
		t.timed("fragstore.Do", -1, op, func() {
			_, _, _, err = store.Do(key, content, nil, func() (*translate.Result, error) { return res, nil })
		})
		if err != nil {
			return err
		}
		var got *translate.Result
		t.timed("fragstore.Get", -1, op, func() { got = store.Get(key) })
		var clone *translate.Result
		t.timed("fragstore.CloneForInstall", -1, op, func() { clone = fragstore.CloneForInstall(got) })
		t.timed("tcache.Install", -1, op, func() { _, err = fresh.Install(clone) })
		if err != nil {
			return fmt.Errorf("replay op %d: install: %w", op, err)
		}
	}
	t.mu.Lock()
	t.fragsByOp = append(t.fragsByOp, frags)
	t.mu.Unlock()
	return nil
}

// replayCheckpoint times the preemption path on a VM's final state:
// vm.Checkpoint, checkpoint.Encode and Decode, then vm.New plus Restore.
func (t *tracer) replayCheckpoint(op int, v *vm.VM) error {
	var st *checkpoint.State
	t.timed("vm.Checkpoint", -1, op, func() { st = v.Checkpoint() })
	var enc []byte
	t.timed("checkpoint.Encode", -1, op, func() { enc = checkpoint.Encode(st) })
	var err error
	t.timed("checkpoint.Decode", -1, op, func() { st, err = checkpoint.Decode(enc) })
	if err != nil {
		return fmt.Errorf("replay op %d: %w", op, err)
	}
	t.timed("vm.Restore", -1, op, func() { vm.New(mem.New(), vm.DefaultConfig()).Restore(st) })
	t.mu.Lock()
	t.ckptBytes += len(enc)
	t.ckptRounds++
	t.mu.Unlock()
	return nil
}

// uarchPrefix bounds the V-insts of each guest whose trace is replayed
// through the timing models.
const uarchPrefix = 100_000

// probeUarch records a bounded trace prefix of the guest twice, translated
// (I-ISA records, paper baseline config) and interpreted (Alpha records),
// and times the ILDP and out-of-order models over them.
func (t *tracer) probeUarch(g *guest) error {
	var ib, ab trace.Buffer
	cfg := vm.DefaultConfig()
	cfg.Sink = &ib
	v, err := runPrefix(g, cfg)
	if err != nil {
		return err
	}
	model := uarch.NewILDP(uarch.DefaultILDP())
	t.timed("uarch.ILDP", -1, -1, func() {
		for _, r := range ib.Recs {
			model.Append(r)
		}
		model.Finish()
	})

	cfg = vm.DefaultConfig()
	cfg.HotThreshold = math.MaxInt32 // interpret only: the native Alpha stream
	cfg.InterpSink = &ab
	if _, err := runPrefix(g, cfg); err != nil {
		return err
	}
	ooo := uarch.NewOoO(uarch.DefaultOoO())
	t.timed("uarch.OoO", -1, -1, func() {
		for _, r := range ab.Recs {
			ooo.Append(r)
		}
		ooo.Finish()
	})
	t.mu.Lock()
	t.ildpRecs += len(ib.Recs)
	t.ildpVInsts += v.Stats.TransVInsts
	t.oooRecs += len(ab.Recs)
	t.mu.Unlock()
	return nil
}

func runPrefix(g *guest, cfg vm.Config) (*vm.VM, error) {
	v := vm.New(mem.New(), cfg)
	if err := v.LoadProgram(g.prog); err != nil {
		return nil, err
	}
	if err := v.Run(uarchPrefix); err != nil && !errors.Is(err, vm.ErrBudget) {
		return nil, fmt.Errorf("trace prefix of %s: %w", g.key, err)
	}
	return v, nil
}

// serveWorkers is the probe server's worker pool: one per CPU of the
// 2-vCPU machines the benchmark was built on.
const serveWorkers = 2

// probeServe drives the serving layer: one in-process server with a
// shared fragment store, every guest submitted at once and run to
// completion. Every session's final checkpoint is restored for its store
// counts; that of every guest without a V-inst budget must also hold the
// oracle's state.
func (t *tracer) probeServe(guests []*guest) error {
	srv := serve.New(serve.Options{Workers: serveWorkers, Store: fragstore.New()})
	defer srv.Close()
	var sessions []*serve.Session
	for _, g := range guests {
		var sess *serve.Session
		var err error
		t.timed("serve.Submit", -1, -1, func() { sess, err = srv.Submit(g.prog, "probe", g.key) })
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		sessions = append(sessions, sess)
	}
	for i, sess := range sessions {
		<-sess.Done()
		if st := sess.StateNow(); st != serve.StateDone {
			return fmt.Errorf("serve probe: session %s (%s) ended %s: %s", sess.ID, sess.Name, st, sess.Err())
		}
		st, err := checkpoint.Decode(sess.FinalCheckpoint())
		if err != nil {
			return fmt.Errorf("serve probe: session %s (%s): %w", sess.ID, sess.Name, err)
		}
		v := vm.New(mem.New(), vm.DefaultConfig())
		v.Restore(st)
		t.serveHits += v.Stats.StoreHits
		t.serveLookups += v.Stats.StoreHits + v.Stats.StoreMisses
		if guests[i].budget > 0 {
			continue
		}
		if err := guests[i].want.diff(vmState(v)); err != nil {
			return fmt.Errorf("serve probe: session %s (%s): %w", sess.ID, sess.Name, err)
		}
	}
	t.serve = srv.Stats()
	return nil
}

// probeExperiments times the four Fig. 8 machines on one guest of a
// workload that does not run the experiments layer itself.
func (t *tracer) probeExperiments(g *guest) error {
	for _, spec := range fig8Specs(g, vm.DefaultHotThreshold) {
		var err error
		t.timed(runMetricSeries[spec.Machine], -1, -1, func() { _, err = experiments.Run(spec) })
		if err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics fills the --trace 1 metrics from the traced phase's spans,
// set-up costs, and the untraced phase for the overhead comparison.
func layerMetrics(rep *runReport, costs []setupCost, plain, traced *phase, t *tracer) {
	var asm, orc []float64
	var emuRun time.Duration
	var emuInsts uint64
	for _, c := range costs {
		asm = append(asm, ms(c.assemble))
		orc = append(orc, ms(c.oracle))
		emuRun += c.oracleRun
		emuInsts += c.emuInsts
	}
	rep.set("alphaasm.assemble_ms", median(asm), len(asm))
	rep.set("emu.oracle_ms", median(orc), len(orc))
	emuNs := float64(emuRun.Nanoseconds()) / float64(emuInsts)
	rep.set("emu.ns_per_inst", emuNs, int(emuInsts))

	spanMean := func(metric, name string, unit time.Duration) float64 {
		v, n := t.mean(name, unit)
		rep.set(metric, v, n)
		return v
	}
	spanMean("vm.new_us", "vm.New", time.Microsecond)
	spanMean("semcheck.reconstruct_us", "semcheck.Reconstruct", time.Microsecond)
	xlate := spanMean("translate.us_per_frag", "translate.Translate", time.Microsecond)
	verify := spanMean("iverify.us_per_frag", "iverify.Verify", time.Microsecond)
	prove := spanMean("semcheck.us_per_frag", "semcheck.Check", time.Microsecond)
	doMiss := spanMean("fragstore.do_miss_us", "fragstore.Do", time.Microsecond)
	keyOf := spanMean("fragstore.keyof_us", "fragstore.KeyOf", time.Microsecond)
	spanMean("fragstore.get_us", "fragstore.Get", time.Microsecond)
	clone := spanMean("fragstore.clone_us", "fragstore.CloneForInstall", time.Microsecond)
	install := spanMean("tcache.install_us", "tcache.Install", time.Microsecond)
	spanMean("checkpoint.encode_us", "checkpoint.Encode", time.Microsecond)
	spanMean("checkpoint.decode_us", "checkpoint.Decode", time.Microsecond)
	spanMean("vm.checkpoint_us", "vm.Checkpoint", time.Microsecond)
	spanMean("vm.restore_us", "vm.Restore", time.Microsecond)
	spanMean("serve.submit_us", "serve.Submit", time.Microsecond)
	for _, name := range runMetricSeries {
		spanMean(name, name, time.Millisecond)
	}
	rep.set("checkpoint.bytes", ratio(float64(t.ckptBytes), float64(t.ckptRounds)), t.ckptRounds)
	frags := 0
	for _, n := range t.fragsByOp {
		frags += n
	}
	rep.set("translate.frags", ratio(float64(frags), float64(len(t.fragsByOp))), len(t.fragsByOp))

	ildpTotal, _ := t.total("uarch.ILDP")
	oooTotal, _ := t.total("uarch.OoO")
	rep.set("uarch.ildp_ns_per_rec", ratio(float64(ildpTotal), float64(t.ildpRecs)), t.ildpRecs)
	rep.set("uarch.ooo_ns_per_rec", ratio(float64(oooTotal), float64(t.oooRecs)), t.oooRecs)
	rep.set("trace.recs_per_vinst", ratio(float64(t.ildpRecs), float64(t.ildpVInsts)), t.ildpRecs)

	// Translated execution: what vm.Run spent minus estimates of its
	// interpretation and translate-side work, per translated V-inst.
	vt := &traced.vm
	vinsts := float64(vt.interp + vt.transV)
	rep.set("vm.run_ms", ratio(ms(vt.run), float64(vt.ops)), vt.ops)
	rep.set("vm.interp_frac", ratio(float64(vt.interp), vinsts), vt.ops)
	rep.set("vm.frag_entries_per_kvinst", ratio(1000*float64(vt.fragEntries), vinsts), vt.ops)
	rep.set("vm.dispatch_per_kvinst", ratio(1000*float64(vt.dispatch), vinsts), vt.ops)
	rep.set("vm.chain_hit_ratio", ratio(float64(vt.chainHits), float64(vt.chainLookups)), int(vt.chainLookups))
	translations := float64(vt.fragments - vt.storeHits)
	xlateNs := 1000 * (translations*xlate + float64(vt.fragments)*install +
		float64(vt.verified)*verify + float64(vt.proved)*prove +
		float64(vt.storeHits+vt.storeMisses)*(keyOf+clone) + float64(vt.storeMisses)*doMiss)
	execNs := float64(vt.run.Nanoseconds()) - float64(vt.interp)*emuNs - xlateNs
	rep.set("vm.exec_ns_per_vinst", ratio(execNs, float64(vt.transV)), int(vt.transV))

	st := t.serve
	rep.set("fragstore.hit_ratio", ratio(float64(t.serveHits), float64(t.serveLookups)), int(t.serveLookups))
	rep.set("serve.quantum_ms.p50", st.QuantumP50ms, int(st.Quanta))
	rep.set("serve.quantum_ms.p99", st.QuantumP99ms, int(st.Quanta))
	rep.set("serve.wait_ms.p50", st.WaitP50ms, int(st.Quanta))
	rep.set("serve.wait_ms.p99", st.WaitP99ms, int(st.Quanta))
	rep.set("serve.quanta_per_session", ratio(float64(st.Quanta), float64(st.Completed)), int(st.Completed))
	rep.set("serve.rejected", float64(st.Rejected), int(st.Admitted+st.Rejected))

	rep.set("bench.trace_overhead_frac",
		quantile(traced.opMs, 0.5)/quantile(plain.opMs, 0.5)-1, len(traced.opMs))
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
