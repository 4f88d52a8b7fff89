package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs, so the paper workload finds the committed report.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchmarkJSON
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	cfg := loadBenchmarkJSON(t)
	check := func(kind string, code []metricDef, declared []jsonMetric) {
		var got, want []string
		for _, d := range code {
			got = append(got, d.name+" "+d.unit)
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s metric %q (unit %q) breaks the name or unit charset", kind, d.name, d.unit)
			}
		}
		for _, m := range declared {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s metrics in code:\n%v\nin BENCHMARK.json:\n%v", kind, got, want)
		}
	}
	check("end-to-end", endToEnd, cfg.EndToEnd)
	check("per-layer", perLayer, cfg.PerLayer)
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestWorkloadsEmitExactlyTheirMetrics runs every workload briefly, untraced
// and traced, through the command-line entry point.
func TestWorkloadsEmitExactlyTheirMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cfg := loadBenchmarkJSON(t)
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			declared := cfg.EndToEnd
			if traced == "1" {
				declared = cfg.PerLayer
			}
			args := []string{"--workload", w, "--seed", "3",
				"--seconds", "0.2", "--trace", traced, "--state-dir", t.TempDir()}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace %s: last line is not JSON: %v", w, traced, err)
			}
			var keys []string
			for k := range raw {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("%s trace %s: result keys %v", w, traced, keys)
			}
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s",
					w, traced, line.Correct, line.Attempted, line.Failed, stderr.String())
			}
			if len(line.Metrics) != len(declared) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d",
					w, traced, len(line.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedOracleFailsOps proves the correctness checks are live: a
// wrong oracle register, or a wrong report cell, must fail ops by name.
func TestCorruptedOracleFailsOps(t *testing.T) {
	opts := options{seed: 1}
	cases := []struct {
		workload string
		corrupt  func(b bench) string // returns the text the failure must name
	}{
		{"coldstart", func(b bench) string { b.(*vmBench).guests[0].want.reg[9] ^= 1; return "R9" }},
		{"paper", func(b bench) string {
			pb := b.(*paperBench)
			pb.golden[pb.guests[0].spec.Name+"/original"] += 1e-9
			return "original IPC"
		}},
	}
	for _, c := range cases {
		if testing.Short() && c.workload == "paper" {
			continue
		}
		opts.workload = c.workload
		var sc setupCost
		b, err := workloads[c.workload](opts, &sc)
		if err != nil {
			t.Fatal(err)
		}
		want := c.corrupt(b)
		ph, err := b.measure(200*time.Millisecond, nil)
		b.close()
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed == 0 || ph.failed >= ph.attempted {
			t.Errorf("%s: %d of %d ops failed; want only the corrupted guest's", c.workload, ph.failed, ph.attempted)
			continue
		}
		if !strings.Contains(ph.failures[0], want) {
			t.Errorf("%s: failure %q does not name %q", c.workload, ph.failures[0], want)
		}
	}
}

// TestCorruptedOracleFailsServeProbe proves the serve probe checks every
// session's final checkpoint against the oracle.
func TestCorruptedOracleFailsServeProbe(t *testing.T) {
	var sc setupCost
	specs, seeds, err := standIns(1, func(i int) uint64 { return dataSeed(1, i) })
	if err != nil {
		t.Fatal(err)
	}
	guests, err := assembleGuests(specs, seeds, &sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range guests {
		if err := runOracle(g, 0, &sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := newTracer().probeServe(guests); err != nil {
		t.Fatalf("intact oracle: %v", err)
	}
	guests[0].want.reg[9] ^= 1
	err = newTracer().probeServe(guests)
	if err == nil || !strings.Contains(err.Error(), "R9") {
		t.Fatalf("corrupted oracle: got %v, want an error naming R9", err)
	}
}

// TestSeedChangesDataNotOps checks that the seed picks the guests' data,
// but never how many ops a round has.
func TestSeedChangesDataNotOps(t *testing.T) {
	for _, w := range []string{"steady", "coldstart"} {
		var sources [2]string
		var n [2]int
		for i, seed := range []uint64{1, 2} {
			var sc setupCost
			b, err := workloads[w](options{workload: w, seed: seed}, &sc)
			if err != nil {
				t.Fatal(err)
			}
			guests := b.(*vmBench).guests
			b.close()
			n[i] = len(guests)
			for _, g := range guests {
				sources[i] += g.spec.Source
			}
		}
		if n[0] != n[1] || n[0] == 0 {
			t.Errorf("%s: %d guests with seed 1, %d with seed 2", w, n[0], n[1])
		}
		if sources[0] == sources[1] {
			t.Errorf("%s: seeds 1 and 2 generate identical guests", w)
		}
	}
}

// TestCountBaselineMismatchFails proves the cross-run count check is live.
func TestCountBaselineMismatchFails(t *testing.T) {
	opts := options{workload: "steady", seed: 7, stateDir: t.TempDir()}
	counts := map[string]opCounts{"steady:gzip/1": {VInsts: 100, Fragments: 2}}
	var log bytes.Buffer
	if err := checkCountBaseline(opts, counts, &log); err != nil {
		t.Fatal(err)
	}
	if err := checkCountBaseline(opts, counts, &log); err != nil {
		t.Fatalf("identical counts: %v", err)
	}
	counts["steady:gzip/1"] = opCounts{VInsts: 101, Fragments: 2}
	if err := checkCountBaseline(opts, counts, &log); err == nil {
		t.Fatal("changed counts passed the baseline check")
	}
}
