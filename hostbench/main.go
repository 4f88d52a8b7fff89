// Command hostbench is the repository's host-time benchmark: how fast the
// co-designed VM stack runs on the host, end to end and layer by layer.
// The paper's own results (IPC, mispredictions, translator work units) are
// simulated; this benchmark measures wall-clock time.
//
// One invocation runs one workload for a fixed time and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half and the metrics are the
// per-layer ones. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"vinsts_per_s", "1/s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the metrics every --trace 1 run reports.
var perLayer = []metricDef{
	{"alphaasm.assemble_ms", "ms"},
	{"emu.oracle_ms", "ms"},
	{"emu.ns_per_inst", "ns"},
	{"vm.new_us", "us"},
	{"vm.run_ms", "ms"},
	{"vm.interp_frac", "ratio"},
	{"vm.exec_ns_per_vinst", "ns"},
	{"vm.frag_entries_per_kvinst", "1/kvinst"},
	{"vm.dispatch_per_kvinst", "1/kvinst"},
	{"vm.chain_hit_ratio", "ratio"},
	{"translate.us_per_frag", "us"},
	{"translate.frags", "count"},
	{"iverify.us_per_frag", "us"},
	{"semcheck.us_per_frag", "us"},
	{"semcheck.reconstruct_us", "us"},
	{"fragstore.do_miss_us", "us"},
	{"fragstore.keyof_us", "us"},
	{"fragstore.get_us", "us"},
	{"fragstore.clone_us", "us"},
	{"tcache.install_us", "us"},
	{"fragstore.hit_ratio", "ratio"},
	{"checkpoint.encode_us", "us"},
	{"checkpoint.decode_us", "us"},
	{"checkpoint.bytes", "bytes"},
	{"vm.checkpoint_us", "us"},
	{"vm.restore_us", "us"},
	{"uarch.ildp_ns_per_rec", "ns"},
	{"uarch.ooo_ns_per_rec", "ns"},
	{"trace.recs_per_vinst", "ratio"},
	{"experiments.run_ms.original", "ms"},
	{"experiments.run_ms.straightened", "ms"},
	{"experiments.run_ms.ildp_basic", "ms"},
	{"experiments.run_ms.ildp_modified", "ms"},
	{"serve.submit_us", "us"},
	{"serve.quantum_ms.p50", "ms"},
	{"serve.quantum_ms.p99", "ms"},
	{"serve.wait_ms.p50", "ms"},
	{"serve.wait_ms.p99", "ms"},
	{"serve.quanta_per_session", "count"},
	{"serve.rejected", "count"},
	{"bench.trace_overhead_frac", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	stateDir string // where spans and the count baseline are written
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed last on standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	rep, err := runWorkload(opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	if err := printReport(stdout, rep, opts.trace); err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var opts options
	var traceFlag int
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.workload, "workload", "", "workload: steady, coldstart or paper")
	fs.Uint64Var(&opts.seed, "seed", 1, "seed for guest data")
	fs.Float64Var(&opts.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&opts.stateDir, "state-dir", ".bench_build/hostbench", "directory for spans and the count baseline")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if fs.NArg() > 0 {
		return opts, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[opts.workload]; !ok {
		return opts, fmt.Errorf("unknown workload %q (want one of %v)", opts.workload, workloadNames())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return opts, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	opts.trace = traceFlag == 1
	if opts.seconds <= 0 || opts.seconds > 120 {
		return opts, fmt.Errorf("--seconds must be in (0, 120], got %v", opts.seconds)
	}
	return opts, nil
}

// printReport writes a human-readable summary followed by the JSON result
// line, which must be the last line of the output.
func printReport(w io.Writer, rep *runReport, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", rep.workload, d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-34s %16.6g %-9s n=%d\n", d.name, v, d.unit, rep.samples[d.name])
	}
	var extra []string
	for name := range rep.metrics {
		if _, ok := line.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("workload %s measured undeclared metrics %v", rep.workload, extra)
	}
	if rep.raw != "" {
		fmt.Fprintln(w, rep.raw)
	}
	fmt.Fprintf(w, "failed_frac %d/%d\n", rep.failed, rep.attempted)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
