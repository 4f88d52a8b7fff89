// Command ildpprof runs a workload through the DBT with the execution
// profiler attached and reports where the cycles went: a hot-fragment
// table (top-N by cycles, with strand shape and exit-reason breakdown),
// a chain-transition summary, an optional Chrome trace-event / Perfetto
// JSON timeline, and an optional folded-stack file for flamegraph
// tooling.
//
// Usage:
//
//	ildpprof -workload gzip -top 20
//	ildpprof -workload bzip -trace out.json          # open in ui.perfetto.dev
//	ildpprof -workload sort -folded out.folded       # flamegraph.pl / inferno
//	ildpprof -workload gzip -machine straightened -chain sw_pred.no_ras
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

func main() {
	wl := flag.String("workload", "", "named synthetic workload to profile (see -list)")
	list := flag.Bool("list", false, "list available workloads")
	scale := flag.Int("scale", 1, "workload scale factor")
	machine := flag.String("machine", "ildp-modified",
		"machine: original | straightened | ildp-basic | ildp-modified")
	chain := flag.String("chain", "sw_pred.ras", "chaining: no_pred | sw_pred.no_ras | sw_pred.ras")
	threshold := flag.Int("threshold", 0, "hot-trace threshold (0 = the paper's default)")
	numAcc := flag.Int("acc", 0, "logical accumulators (0 = default)")
	pes := flag.Int("pes", 8, "ILDP processing elements")
	commLat := flag.Int64("comm", 0, "ILDP global wire latency in cycles")
	maxV := flag.Int64("max", 0, "V-instruction budget (0 = unlimited)")

	top := flag.Int("top", 10, "hot-fragment table rows (0 = all)")
	chains := flag.Bool("chains", true, "print the chain-transition summary")
	traceOut := flag.String("trace", "", "write a Chrome trace-event / Perfetto JSON timeline to this file")
	foldedOut := flag.String("folded", "", "write folded stacks (frag;strand cycles) to this file, or - for stdout")
	events := flag.Int("events", 0, "trace-event ring capacity (0 = default 65536)")
	sample := flag.Int("sample", 1, "record ring events for every Nth frame activation")
	selfcheck := flag.Bool("selfcheck", false,
		"verify cycle conservation against the timing model and validate the trace JSON")
	flag.Parse()

	if *list {
		for _, name := range workload.Names() {
			s, _ := workload.ByName(name, 1)
			fmt.Printf("  %-8s %s\n", name, s.Description)
		}
		return
	}
	if *wl == "" {
		fmt.Fprintln(os.Stderr, "ildpprof: -workload is required (see -list)")
		os.Exit(2)
	}

	spec, err := workload.ByName(*wl, *scale)
	if err != nil {
		fatal(err)
	}

	mach, err := experiments.MachineByName(*machine)
	if err != nil {
		fatal(err)
	}
	var cm translate.ChainMode
	switch *chain {
	case "no_pred":
		cm = translate.NoPred
	case "sw_pred.no_ras":
		cm = translate.SWPred
	case "sw_pred.ras":
		cm = translate.SWPredRAS
	default:
		fatal(fmt.Errorf("unknown chaining mode %q", *chain))
	}

	p := prof.New(prof.Config{Capacity: *events, SampleEvery: *sample})
	out, err := experiments.Run(experiments.RunSpec{
		Workload: spec, Machine: mach, Chain: cm,
		NumAcc: *numAcc, PEs: *pes, CommLat: *commLat,
		HotThreshold: *threshold, MaxV: *maxV,
		Timing: true, Prof: p,
	})
	if err != nil {
		fatal(err)
	}

	pr := p.Profile()
	fmt.Printf("workload %s on %v (%v): %d cycles, V-IPC %.2f, %d records profiled\n\n",
		*wl, mach, cm, out.Timing.Cycles, out.Timing.IPC(), p.Retires())
	if err := pr.WriteHotTable(os.Stdout, *top); err != nil {
		fatal(err)
	}
	if *chains {
		fmt.Printf("\nchain transitions:\n")
		if err := pr.WriteChainSummary(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *selfcheck {
		if err := pr.CheckConservation(out.Timing.Cycles); err != nil {
			fatal(err)
		}
		var buf bytes.Buffer
		if err := p.WritePerfetto(&buf); err != nil {
			fatal(err)
		}
		if err := prof.ValidateTrace(buf.Bytes()); err != nil {
			fatal(err)
		}
		fmt.Printf("\nselfcheck: cycle conservation and trace schema OK\n")
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, p.WritePerfetto); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace: %s (open in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	if *foldedOut != "" {
		if *foldedOut == "-" {
			fmt.Println()
			if err := pr.WriteFolded(os.Stdout); err != nil {
				fatal(err)
			}
		} else if err := writeFile(*foldedOut, pr.WriteFolded); err != nil {
			fatal(err)
		} else {
			fmt.Printf("folded stacks: %s (feed to flamegraph.pl or speedscope)\n", *foldedOut)
		}
	}
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ildpprof:", err)
	os.Exit(1)
}
