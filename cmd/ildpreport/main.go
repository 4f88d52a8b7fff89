// Command ildpreport consumes the machine-readable experiment reports
// that `ildpbench -json` emits and keeps the human-facing documents in
// sync with them: it regenerates the generated block of EXPERIMENTS.md
// (the region between the "generated by ildpreport" markers) and the
// BENCH_experiments.json trajectory file of headline aggregates.
//
// Usage:
//
//	ildpreport                       # print the rendered block to stdout
//	ildpreport -write                # regenerate EXPERIMENTS.md + BENCH_experiments.json
//	ildpreport -check                # fail if either file is stale (CI gate)
//	ildpbench -experiment=table2 -scale=1 -json | ildpreport -validate -in -
//
// The default -in is the committed scale-2 report, so `ildpreport
// -check` works from a clean checkout with no simulation run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ildp/accdbt/internal/iofs"
	"github.com/ildp/accdbt/internal/report"
)

func main() {
	in := flag.String("in", "reports/experiments-scale2.json", "input report JSON (from `ildpbench -json`); - reads stdin")
	doc := flag.String("doc", "EXPERIMENTS.md", "document whose generated block to regenerate")
	bench := flag.String("bench", "BENCH_experiments.json", "trajectory file of headline aggregates")
	write := flag.Bool("write", false, "rewrite the document's generated block and the trajectory file in place")
	check := flag.Bool("check", false, "verify the document and trajectory match the report; exit 1 if stale")
	validate := flag.Bool("validate", false, "only parse and schema-validate the report, then print a summary")
	flag.Parse()
	if *write && *check {
		fatal(fmt.Errorf("-write and -check are mutually exclusive"))
	}

	data, source, err := readInput(*in)
	if err != nil {
		fatal(err)
	}
	r, err := report.Decode(data)
	if err != nil {
		fatal(err)
	}

	switch {
	case *validate:
		fmt.Printf("valid report: schema %d, %s scale %d threshold %d, %d experiments, %d records, %d workloads\n",
			r.Schema, r.Meta.Generator, r.Meta.Scale, r.Meta.Threshold,
			len(r.Meta.Experiments), len(r.Records), len(r.Meta.Workloads))
	case *write:
		if err := writeFiles(r, source, *doc, *bench); err != nil {
			fatal(err)
		}
	case *check:
		if err := checkFiles(r, source, *doc, *bench); err != nil {
			fatal(err)
		}
	default:
		fmt.Print(r.RenderBlock(source))
	}
}

// readInput loads the report bytes and the provenance name recorded in
// the rendered block (the -in path as given, so -write and -check agree).
func readInput(in string) ([]byte, string, error) {
	if in == "-" {
		data, err := io.ReadAll(os.Stdin)
		return data, "stdin", err
	}
	data, err := os.ReadFile(in)
	return data, in, err
}

func writeFiles(r *report.Report, source, docPath, benchPath string) error {
	docData, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	spliced, err := report.SpliceDoc(docData, r.RenderBlock(source))
	if err != nil {
		return err
	}
	if err := iofs.AtomicWriteFile(nil, docPath, spliced, 0o644); err != nil {
		return err
	}
	benchData, err := os.ReadFile(benchPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	updated, err := report.UpdateTrajectory(benchData, r)
	if err != nil {
		return err
	}
	if err := iofs.AtomicWriteFile(nil, benchPath, updated, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (generated block) and %s\n", docPath, benchPath)
	return nil
}

func checkFiles(r *report.Report, source, docPath, benchPath string) error {
	docData, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	if err := report.CheckDoc(docData, r, source); err != nil {
		return err
	}
	benchData, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	updated, err := report.UpdateTrajectory(benchData, r)
	if err != nil {
		return err
	}
	if string(updated) != string(benchData) {
		return fmt.Errorf("%s is stale for scale %d threshold %d; regenerate with `make experiments` or `ildpreport -write`",
			benchPath, r.Meta.Scale, r.Meta.Threshold)
	}
	fmt.Printf("%s and %s are in sync with %s\n", docPath, benchPath, source)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ildpreport:", err)
	os.Exit(1)
}
