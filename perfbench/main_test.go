package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tiny shrinks every workload so a smoke run takes well under a second
// per workload.
var tiny = size{N: 1500, GridN: 200, GridGenN: 8}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program has %v", names, want)
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(defs))
		}
		for i := range min(len(listed), len(defs)) {
			if listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program has %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestSmoke runs every workload at a tiny size through the same code
// the benchmark runs, untraced and traced, and checks that every output
// check passes and every metric BENCHMARK.json names is printed with its
// unit, on its own line and in the result line.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			listed := f.EndToEnd
			if traced {
				name += "/traced"
				listed = f.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w.name, seed: 7, trace: traced, workDir: t.TempDir(), size: tiny}
				var out bytes.Buffer
				rep, err := execute(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Fatalf("run not correct:\n%s", out.String())
				}
				if rep.Attempted < 1 || rep.Failed < 0 || rep.Failed > rep.Attempted {
					t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(listed) {
					t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(listed))
				}
				lines := strings.Split(out.String(), "\n")
				for _, m := range listed {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("result line: %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
					printed := false
					for _, l := range lines {
						fields := strings.Fields(l)
						if len(fields) == 3 && fields[0] == m.Name && fields[2] == m.Unit {
							printed = true
						}
					}
					if !printed {
						t.Errorf("no output line prints %s with unit %s", m.Name, m.Unit)
					}
				}
				if entries, err := os.ReadDir(cfg.workDir); err != nil || len(entries) != 0 {
					t.Errorf("temporary files left behind: %v %v", entries, err)
				}
			})
		}
	}
}

// TestKVOvercommitReported pins that gen-kv reports the KV pool's
// overcommit as failed sequences and timeline violations rather than
// hiding it.
func TestKVOvercommitReported(t *testing.T) {
	cfg := config{workload: "gen-kv", seed: 1, trace: true, workDir: t.TempDir(), size: tiny}
	rep, err := execute(cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Error("gen-kv reported no failed sequences")
	}
	for _, name := range []string{"genserve.oversize_seqs", "genserve.kv_bound_violations"} {
		if rep.Metrics[name].Value == 0 {
			t.Errorf("%s = 0, want the overcommit reported", name)
		}
	}
}

// TestCountsIndependentOfUnits pins that attempted and failed count the
// seed's scenario once, however many timed units fit into --seconds, so
// two runs of the same code and seed report the same counts.
func TestCountsIndependentOfUnits(t *testing.T) {
	var reps []*report
	for _, seconds := range []float64{0, 0.5} {
		cfg := config{workload: "gen-kv", seed: 1, seconds: seconds, workDir: t.TempDir(), size: tiny}
		var out bytes.Buffer
		rep, err := execute(cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		units := 0
		for _, l := range strings.Split(out.String(), "\n") {
			fmt.Sscanf(l, "units %d", &units)
		}
		if (seconds == 0) != (units == 1) {
			t.Fatalf("--seconds %g ran %d units", seconds, units)
		}
		reps = append(reps, rep)
	}
	if reps[0].Attempted != int64(tiny.N) || reps[1].Attempted != reps[0].Attempted || reps[1].Failed != reps[0].Failed {
		t.Errorf("one unit: attempted %d failed %d; several: attempted %d failed %d; want both %d attempted, equal failed",
			reps[0].Attempted, reps[0].Failed, reps[1].Attempted, reps[1].Failed, tiny.N)
	}
}

// TestKVOvercommitObserved pins that the overcommit count comes from
// what the runtime did: prefix hits shrink a sequence's working set, so a
// pool that holds every sequence once its prompt is cached sees none.
func TestKVOvercommitObserved(t *testing.T) {
	w, err := findWorkload("gen-kv")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := setupScenario(w, config{seed: 1, size: tiny})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kvOvercommit(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Without the prefix cache every sequence larger than the pool
	// overcommits it; with it, fewer do.
	noCache := sc
	noCache.PrefixHit = 0
	all, err := kvOvercommit(noCache)
	if err != nil {
		t.Fatal(err)
	}
	if got.seqs == 0 || got.seqs >= all.seqs {
		t.Errorf("overcommitting sequences: %d with prefix hits, %d without; want 0 < with < without", got.seqs, all.seqs)
	}
	allCached := sc
	allCached.PrefixHit = 1
	none, err := kvOvercommit(allCached)
	if err != nil {
		t.Fatal(err)
	}
	if none.seqs != 0 || none.rows != 0 {
		t.Errorf("every prompt cached: %d sequences and %d timeline rows overcommit, want 0", none.seqs, none.rows)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "0"},
		{"--workload", "gen-kv", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(append(args, "--workdir", t.TempDir()), &out, &errOut); code == 0 {
			t.Errorf("run %v exited 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed a result: %s", args, out.String())
		}
	}
}
