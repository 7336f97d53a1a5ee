// Command perfbench is the repository's benchmark: it runs one named
// workload through the public entry points (core.RunScenario, or
// sweep.Grid.Expand + sweep.Run + sweep.WriteJSON), checks every timed
// unit's output, and prints each metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host cost and the
// simulated outcome); with --trace 1 a separate traced run rebuilds the
// workload from the layers' public APIs with timing wrappers and reports
// per-layer metrics. run.sh builds it and forwards the flags:
//
//	bash perfbench/run.sh --workload nlp-single --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
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

// endToEnd lists the --trace 0 metrics in print order.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"allocs_per_req", "count/req"},
	{"alloc_bytes_per_req", "B/req"},
	{"ok_frac", "frac"},
	{"sim_p50_win_pct", "%"},
	{"sim_p99_ratio", "ratio"},
	{"sim_acc_loss", "frac"},
	{"sim_throughput", "1/s"},
	{"sim_served_frac", "frac"},
}

// perLayer lists the --trace 1 metrics in print order. Metrics of a
// layer the workload never calls read 0.
var perLayer = []metricDef{
	{"workload.next_ns_per_req", "ns"},
	{"serving.self_s", "s"},
	{"serving.batch_latency_calls", "count"},
	{"serving.batch_latency_s", "s"},
	{"serving.avg_batch", "req"},
	{"serving.queue_wait_ms_p50", "ms"},
	{"serving.queue_wait_ms_p99", "ms"},
	{"serving.retries_per_req", "count/req"},
	{"serving.crashes", "count"},
	{"handler.serve_calls", "count"},
	{"handler.serve_ns_p50", "ns"},
	{"handler.serve_ns_p99", "ns"},
	{"handler.plain_s", "s"},
	{"ramp.exit_frac", "frac"},
	{"ramp.active_ramps", "count"},
	{"controller.tune_rounds", "count"},
	{"controller.tune_s", "s"},
	{"controller.tune_ms_per_round", "ms"},
	{"controller.adjust_rounds", "count"},
	{"controller.adjust_s", "s"},
	{"controller.adjust_ms_per_round", "ms"},
	{"controller.tune_effective_frac", "frac"},
	{"controller.share", "frac"},
	{"metrics.add_ns", "ns"},
	{"metrics.summary_s", "s"},
	{"genserve.run_self_s", "s"},
	{"genserve.policy_s", "s"},
	{"genserve.decide_calls", "count"},
	{"genserve.decide_ns_p50", "ns"},
	{"genserve.decide_ns_p99", "ns"},
	{"genserve.kv_util", "frac"},
	{"genserve.preempts_per_seq", "count/seq"},
	{"genserve.prefix_hit_frac", "frac"},
	{"genserve.queue_ms", "ms"},
	{"genserve.oversize_seqs", "count"},
	{"genserve.kv_bound_violations", "count"},
	{"obs.events", "count"},
	{"obs.trace_bytes", "B"},
	{"obs.write_s", "s"},
	{"obs.overhead_s", "s"},
	{"sweep.scenarios", "count"},
	{"sweep.expand_s", "s"},
	{"sweep.emit_s", "s"},
	{"sweep.serial_sum_s", "s"},
	{"sweep.parallel_efficiency", "frac"},
	{"sweep.slowest_share", "frac"},
	{"core.self_s", "s"},
	{"core.fail_frac", "frac"},
	{"core.p99_win_pct", "%"},
	{"core.drop_frac", "frac"},
	{"bench.wall_s", "s"},
	{"bench.trace_overhead_frac", "frac"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workDir holds the run's temporary files (sweep observability
	// output); it is created if missing and emptied of the run's files
	// before exit.
	workDir string
	size    size
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally accumulates the output checks of a run. Its operations are the
// simulated requests (or sequences) of the scenario or grid --seed
// names, counted once: every timed unit serves that same scenario and
// must reproduce the run's first output, so attempted and failed do not
// depend on how many units fit into --seconds. An operation fails when
// its result breaks a bound the program promises (a scenario's
// accuracy-loss limit, the KV pool's size). A check that voids a unit's
// output makes the run incorrect and fails every operation.
type tally struct {
	attempted int64
	// wrong lists the checks that voided output.
	wrong []string
	// missed counts failed operations by the bound they broke.
	missed map[string]int64
}

// void records a check that found a unit's output wrong.
func (t *tally) void(format string, args ...any) {
	t.wrong = append(t.wrong, fmt.Sprintf(format, args...))
}

// miss fails ops operations whose result broke the named bound.
func (t *tally) miss(ops int, bound string) {
	if t.missed == nil {
		t.missed = map[string]int64{}
	}
	t.missed[bound] += int64(ops)
}

// failed is the number of failed operations.
func (t *tally) failed() int64 {
	if len(t.wrong) > 0 {
		return t.attempted
	}
	var n int64
	for _, ops := range t.missed {
		n += ops
	}
	return min(n, t.attempted)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: nlp-single, cv-cluster, gen-kv or sweep-mixed")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long to keep running timed units")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build/tmp", "directory for the run's temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	rep, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs the configured measurement and prints its human-readable
// lines; the caller prints the result line.
func execute(cfg config, out io.Writer) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defs := endToEnd
	var values map[string]float64
	var t tally
	if cfg.trace {
		defs = perLayer
		values, err = traced(w, cfg, &t, out)
	} else {
		values, err = measure(w, cfg, &t, out)
	}
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   len(t.wrong) == 0,
		Attempted: t.attempted,
		Failed:    t.failed(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, p := range t.wrong {
		fmt.Fprintf(out, "check failed: %s\n", p)
	}
	bounds := make([]string, 0, len(t.missed))
	for b := range t.missed {
		bounds = append(bounds, b)
	}
	sort.Strings(bounds)
	for _, b := range bounds {
		fmt.Fprintf(out, "bound missed: %s: %d operations\n", b, t.missed[b])
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(out, "attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	return rep, nil
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
