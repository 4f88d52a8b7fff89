package vm

import (
	"reflect"
	"strconv"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/translate"
)

// This file connects the VM to the checkpoint package: Checkpoint
// captures the complete architected state (plus the flattened Stats, so
// accounting reconciles across kill/resume segments), and Restore
// applies a decoded state to a VM while discarding every piece of
// concealed state — translation cache, trace counters, RAS,
// accumulators — which is rebuilt by re-translation, exactly as the
// co-designed-VM contract requires (DESIGN.md §11).

// Checkpoint captures the VM's architected state. It is only precise at
// a V-instruction boundary — call it after Run returns (halt, trap, or
// *PreemptError), never concurrently with Run.
func (v *VM) Checkpoint() *checkpoint.State {
	lockFlag, lockAddr := v.cpu.LockState()
	return &checkpoint.State{
		PC:         v.cpu.PC,
		Reg:        v.cpu.Reg,
		Halted:     v.cpu.Halted,
		ExitStatus: v.cpu.ExitStatus,
		InstCount:  v.cpu.InstCount,
		LockFlag:   lockFlag,
		LockAddr:   lockAddr,
		MemStrict:  v.mem.Strict,
		Console:    append([]byte(nil), v.cpu.Console...),
		Counters:   statsToCounters(&v.Stats),
		Pages:      v.mem.Snapshot(),
	}
}

// Restore applies a checkpointed state to the VM. All concealed state
// is reset cold: the translation cache is emptied, trace counters and
// quarantine/failure records are cleared, the RAS and accumulator file
// are zeroed, and any in-flight superblock recording is abandoned.
// Translated code is rebuilt on demand after resume; because
// translation is a pure function of V-ISA memory (which the checkpoint
// restores exactly), the rebuilt fragments compute the same results as
// the discarded ones. The VM's Stats are restored from the checkpoint's
// flattened counters, so cumulative accounting spans segments.
func (v *VM) Restore(st *checkpoint.State) {
	v.cpu.PC = st.PC
	v.cpu.Reg = st.Reg
	v.cpu.Halted = st.Halted
	v.cpu.ExitStatus = st.ExitStatus
	v.cpu.InstCount = st.InstCount
	v.cpu.SetLockState(st.LockFlag, st.LockAddr)
	v.cpu.Console = append([]byte(nil), st.Console...)
	v.mem.Strict = st.MemStrict
	v.mem.LoadSnapshot(st.Pages)

	v.Stats = Stats{}
	statsFromCounters(&v.Stats, st.Counters)

	// Concealed state: discard and rebuild.
	v.tc.Reset()
	v.counters = map[uint64]int{}
	v.failures = map[uint64]int{}
	v.quarantine = map[uint64]bool{}
	v.recording = false
	v.sb = translate.Superblock{}
	v.inTrace = nil
	v.ras = newDualRAS(v.cfg.RASSize)
	v.file = [len(v.file)]uint64{}
	v.inFallback = false
	v.wdRetired = v.Stats.TotalVInsts()
	v.wdWork = v.Stats.TransIInsts + v.Stats.InterpInsts

	v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventResume, Frag: -1, VStart: st.PC})
	v.cfg.Metrics.Counter("vm.preempt.resumes").Inc()
	v.cfg.Prof.Resume(v.Stats.TransIInsts, v.Stats.TransVInsts)
}

// statsToCounters flattens Stats into named values by reflection:
// scalar fields become "stats.<Field>", array fields (ClassCounts,
// UsageDyn, UsageStatic) become "stats.<Field>.<i>". Signed fields are
// bit-cast, which round-trips exactly through statsFromCounters.
// Reflection keeps the checkpoint format decoupled from the Stats
// layout: adding a field extends the counter set automatically.
func statsToCounters(s *Stats) map[string]uint64 {
	out := map[string]uint64{}
	rv := reflect.ValueOf(s).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		name := "stats." + rt.Field(i).Name
		f := rv.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				out[name+"."+strconv.Itoa(j)] = scalarBits(f.Index(j))
			}
			continue
		}
		out[name] = scalarBits(f)
	}
	return out
}

// statsFromCounters is the inverse of statsToCounters: fields whose
// names are absent (e.g. zero-valued entries dropped by the canonical
// encoding, or fields added after the checkpoint was written) stay
// zero.
func statsFromCounters(s *Stats, counters map[string]uint64) {
	rv := reflect.ValueOf(s).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		name := "stats." + rt.Field(i).Name
		f := rv.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				setScalarBits(f.Index(j), counters[name+"."+strconv.Itoa(j)])
			}
			continue
		}
		setScalarBits(f, counters[name])
	}
}

func scalarBits(f reflect.Value) uint64 {
	switch f.Kind() {
	case reflect.Uint64:
		return f.Uint()
	case reflect.Int, reflect.Int64:
		return uint64(f.Int())
	}
	panic("vm: unsupported Stats field kind " + f.Kind().String())
}

func setScalarBits(f reflect.Value, bits uint64) {
	switch f.Kind() {
	case reflect.Uint64:
		f.SetUint(bits)
	case reflect.Int, reflect.Int64:
		f.SetInt(int64(bits))
	default:
		panic("vm: unsupported Stats field kind " + f.Kind().String())
	}
}
