// Package experiments reproduces every table and figure of the paper's
// evaluation (§4): translated-code statistics (Table 2), translation
// overhead (§4.2), chaining-method mispredictions and instruction-count
// expansion (Figs. 4-5), code-straightening IPC (Fig. 6), output-usage
// statistics (Fig. 7), the headline IPC comparison (Fig. 8), and the
// machine-parameter sensitivity sweep (Fig. 9).
package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// Machine selects one of the four simulated machines of §4.1.
type Machine uint8

const (
	// Original: native Alpha on the out-of-order superscalar (no DBT).
	Original Machine = iota
	// Straightened: the code-straightening-only DBT on the superscalar.
	Straightened
	// ILDPBasic: the basic accumulator ISA on the ILDP microarchitecture.
	ILDPBasic
	// ILDPModified: the modified accumulator ISA on the ILDP
	// microarchitecture.
	ILDPModified
)

var machineNames = [...]string{"original", "straightened", "ildp-basic", "ildp-modified"}

func (m Machine) String() string {
	if int(m) < len(machineNames) {
		return machineNames[m]
	}
	return "machine?"
}

// MachineByName returns the machine whose String is name.
func MachineByName(name string) (Machine, error) {
	for m, n := range machineNames {
		if n == name {
			return Machine(m), nil
		}
	}
	return 0, fmt.Errorf("unknown machine %q", name)
}

// ParseMachines parses "all" (every machine, in order) or a
// comma-separated list of machine names.
func ParseMachines(list string) ([]Machine, error) {
	var out []Machine
	if list == "all" {
		for m := range machineNames {
			out = append(out, Machine(m))
		}
		return out, nil
	}
	for _, name := range strings.Split(list, ",") {
		m, err := MachineByName(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("%w (want original, straightened, ildp-basic, ildp-modified, or all)", err)
		}
		out = append(out, m)
	}
	return out, nil
}

// RunSpec describes one simulation run.
type RunSpec struct {
	Workload *workload.Spec
	Machine  Machine
	Chain    translate.ChainMode
	NumAcc   int   // accumulators (default 4)
	PEs      int   // ILDP processing elements (default 8)
	CommLat  int64 // ILDP global wire latency (default 0)
	SmallD   bool  // 8KB 2-way D-cache instead of 32KB 4-way
	FuseMem  bool  // §4.5 extension: unsplit memory operations
	NoHWRAS  bool  // disable the conventional RAS (Fig. 6 variants)
	Timing   bool  // attach the timing model
	MaxV     int64 // V-instruction budget (0 = run to completion)

	HotThreshold int // default 50 (the paper's threshold)
	MaxSB        int // maximum superblock size (default 200)
	RASSize      int // dual-address RAS entries (default 16)

	// Metrics, when non-nil, receives the run's fragment lifecycle
	// events during execution plus the aggregate VM statistics and (for
	// timed runs) the timing-model summary at the end. Collection never
	// changes simulation results.
	Metrics *metrics.Registry

	// Prof, when non-nil, is attached to both the VM and the timing
	// model so the run's fragment activity and cycle attribution land in
	// one execution profile. Profiling never changes simulation results.
	Prof *prof.Profiler

	// Tune, when non-nil, receives the fully built VM configuration
	// immediately before the VM is constructed. It is the attachment
	// point for observability hooks (vm.Config.Poll) and must not
	// change translation semantics.
	Tune func(*vm.Config)

	// Attach, when non-nil, receives the constructed VM after the
	// program is loaded and before it runs, on the goroutine that will
	// run it — where telemetry sessions install their probes.
	Attach func(*vm.VM)
}

// Outcome is the result of one run.
type Outcome struct {
	Spec   RunSpec
	VM     vm.Stats
	Timing uarch.Result
	PEDist []float64
}

// Run executes one simulation.
func Run(spec RunSpec) (*Outcome, error) {
	if spec.NumAcc <= 0 {
		spec.NumAcc = ildp.DefaultAccumulators
	}
	if spec.PEs <= 0 {
		spec.PEs = 8
	}
	if spec.HotThreshold <= 0 {
		spec.HotThreshold = vm.DefaultHotThreshold
	}

	prog, err := spec.Workload.Program()
	if err != nil {
		return nil, err
	}

	cfg := vm.DefaultConfig()
	cfg.Chain = spec.Chain
	cfg.NumAcc = spec.NumAcc
	cfg.HotThreshold = spec.HotThreshold
	cfg.FuseMemOps = spec.FuseMem
	cfg.Metrics = spec.Metrics
	cfg.Prof = spec.Prof
	if spec.MaxSB > 0 {
		cfg.MaxSuperblock = spec.MaxSB
	}
	if spec.RASSize > 0 {
		cfg.RASSize = spec.RASSize
	}

	var ooo *uarch.OoO
	var ildpM *uarch.ILDP

	switch spec.Machine {
	case Original:
		// No DBT: interpret everything; the timing model sees the native
		// Alpha stream.
		cfg.HotThreshold = math.MaxInt32
		if spec.Timing {
			mc := uarch.DefaultOoO()
			mc.UseHWRAS = !spec.NoHWRAS
			ooo = uarch.NewOoO(mc)
			cfg.InterpSink = ooo
		}
	case Straightened:
		cfg.Straighten = true
		if spec.Timing {
			mc := uarch.DefaultOoO()
			mc.UseHWRAS = false
			mc.DualRASTrace = spec.Chain == translate.SWPredRAS && !spec.NoHWRAS
			if spec.NoHWRAS && spec.Chain == translate.SWPredRAS {
				// Fig. 6's "straightened without RAS" pairs sw_pred chaining
				// with no return prediction; callers normally pass SWPred.
				mc.DualRASTrace = false
			}
			ooo = uarch.NewOoO(mc)
			cfg.Sink = ooo
		}
	case ILDPBasic, ILDPModified:
		cfg.Form = ildp.Basic
		if spec.Machine == ILDPModified {
			cfg.Form = ildp.Modified
		}
		if spec.Timing {
			mc := uarch.DefaultILDP()
			mc.PEs = spec.PEs
			mc.CommLat = spec.CommLat
			mc.DualRASTrace = spec.Chain == translate.SWPredRAS
			mc.CacheOpts.Replicas = spec.PEs
			if spec.SmallD {
				mc.CacheOpts.DSizeBytes = 8 << 10
				mc.CacheOpts.DWays = 2
			}
			ildpM = uarch.NewILDP(mc)
			cfg.Sink = ildpM
		}
	default:
		return nil, fmt.Errorf("experiments: unknown machine %v", spec.Machine)
	}

	if spec.Prof != nil {
		if ooo != nil {
			ooo.SetProfiler(spec.Prof)
		}
		if ildpM != nil {
			ildpM.SetProfiler(spec.Prof)
		}
	}

	if tune := spec.Tune; tune != nil {
		tune(&cfg)
	}
	v := vm.New(mem.New(), cfg)
	if err := v.LoadProgram(prog); err != nil {
		return nil, err
	}
	if attach := spec.Attach; attach != nil {
		attach(v)
	}
	if err := v.Run(spec.MaxV); err != nil {
		return nil, fmt.Errorf("%s on %v: %w", spec.Workload.Name, spec.Machine, err)
	}

	out := &Outcome{Spec: spec, VM: v.Stats}
	if ooo != nil {
		out.Timing = ooo.Finish()
	}
	if ildpM != nil {
		out.Timing = ildpM.Finish()
		out.PEDist = ildpM.PEDistribution()
	}
	spec.Prof.Finish()
	if spec.Metrics != nil {
		out.VM.Publish(spec.Metrics)
		if spec.Timing {
			prefix := "uarch.ildp"
			if ooo != nil {
				prefix = "uarch.ooo"
			}
			out.Timing.Publish(spec.Metrics, prefix)
		}
	}
	return out, nil
}

// MustRun is Run for drivers where errors are programming bugs.
func MustRun(spec RunSpec) *Outcome {
	out, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return out
}
