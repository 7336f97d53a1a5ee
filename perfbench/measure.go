package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// unitCost is the host cost of one timed unit.
type unitCost struct {
	wall, cpu      float64
	mallocs, bytes uint64
}

// timeUnit runs f as one timed unit. A collection first clears the
// previous unit's garbage, so each unit pays for its own.
func timeUnit(f func()) unitCost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	f()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return unitCost{wall: wall, cpu: c1 - c0, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setupSampleCPU is the CPU time one set-up sample spans: the set-up
// repeats until it has used this much, and the sample is CPU seconds per
// repetition. A single scenario's set-up lasts a millisecond or two, too
// short to time alone, and sweep-mixed's Grid.Expand lasts about 60 ms,
// of which a garbage collection may or may not fall into one repetition.
const setupSampleCPU = 0.2

// timedLoop runs timed units until cfg.seconds have passed, and at
// least one. After each unit it takes one set-up sample, so setup_s, like
// wall_s, is a median over the whole run rather than one moment of it.
// Set-up is timed in CPU seconds because a sample lasts only a fraction
// of a second: its wall time is dominated by how long the virtual
// machine's CPU was taken away, not by the set-up.
func timedLoop(cfg config, setup func() error, unit func() unitCost) ([]unitCost, []float64, error) {
	var costs []unitCost
	var setups []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(costs) == 0 || time.Now().Before(deadline) {
		costs = append(costs, unit())
		// Return the unit's freed heap to the operating system before the
		// sample: otherwise the runtime's background scavenger does it
		// during the sample, and its CPU time counts as set-up.
		debug.FreeOSMemory()
		c0 := cpuSeconds()
		reps := 0
		for reps == 0 || cpuSeconds()-c0 < setupSampleCPU {
			if err := setup(); err != nil {
				return nil, nil, err
			}
			reps++
		}
		setups = append(setups, (cpuSeconds()-c0)/float64(reps))
	}
	return costs, setups, nil
}

// measure is the end-to-end run of a scenario workload: every timed unit
// is one core.RunScenario call of the scenario --seed names.
func measure(w workloadDef, cfg config, t *tally, out io.Writer) (map[string]float64, error) {
	if w.grid != nil {
		return measureSweep(w, cfg, t, out)
	}
	sc, err := setupScenario(w, cfg)
	if err != nil {
		return nil, err
	}
	// What the KV runtime did past its pool, observed once outside the
	// timed units; every unit reproduces it, as its digest shows.
	var kv *overcommit
	if sc.KVBlocks > 0 {
		if kv, err = kvOvercommit(sc); err != nil {
			return nil, err
		}
	}
	t.attempted = int64(sc.N)
	var first *core.Result
	var digest string
	costs, setups, err := timedLoop(cfg, func() error {
		_, err := setupScenario(w, cfg)
		return err
	}, func() unitCost {
		var res *core.Result
		var err error
		c := timeUnit(func() { res, err = core.RunScenario(sc) })
		if checkScenario(t, sc, res, err, &digest) && first == nil {
			first = res
		}
		return c
	})
	if err != nil {
		return nil, err
	}
	if first != nil {
		checkBounds(t, sc, first, kv)
	}
	fmt.Fprintf(out, "digest seed=%d %s\n", sc.Seed, digest)
	m := costMetrics(costs, float64(2*sc.N), out)
	m["setup_s"] = median(setups)
	m["ok_frac"] = okFrac(t)
	var rs []*core.Result
	if first != nil {
		rs = append(rs, first)
	}
	simMetrics(m, rs)
	return m, nil
}

// simMetrics sets the simulated-outcome metrics to their means over rs,
// or to 0 when no unit gave a usable result (the run is then incorrect).
func simMetrics(m map[string]float64, rs []*core.Result) {
	var p50, p99, acc, thr, served float64
	for _, r := range rs {
		p50 += r.P50Win
		p99 += p99Ratio(r)
		acc += r.AccDelta
		thr += r.Apparate.Throughput
		served += 1 - r.Apparate.DropRate
	}
	n := float64(max(len(rs), 1))
	m["sim_p50_win_pct"] = p50 / n
	m["sim_p99_ratio"] = p99 / n
	m["sim_acc_loss"] = acc / n
	m["sim_throughput"] = thr / n
	m["sim_served_frac"] = served / n
}

// setupScenario is a scenario workload's set-up: validation,
// normalization, and the model, stream and serving-system construction
// RunScenario performs before its first request.
func setupScenario(w workloadDef, cfg config) (core.Scenario, error) {
	sc := w.scenario(cfg.seed, cfg.size)
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	sc = sc.Normalize()
	_, err := build(sc)
	return sc, err
}

// checkScenario applies the output checks to one RunScenario call and
// reports whether the result can be used.
func checkScenario(t *tally, sc core.Scenario, res *core.Result, err error, digest *string) bool {
	if err != nil {
		t.void("seed %d: RunScenario: %v", sc.Seed, err)
		return false
	}
	if res.Requests != sc.N {
		t.void("seed %d: %d requests served, want %d", sc.Seed, res.Requests, sc.N)
		return false
	}
	d, err := resultDigest(res)
	if err != nil {
		t.void("seed %d: %v", sc.Seed, err)
		return false
	}
	if *digest == "" {
		*digest = d
	} else if d != *digest {
		t.void("seed %d: result digest %s differs from the run's first %s", sc.Seed, d, *digest)
		return false
	}
	return true
}

// checkBounds fails the operations of the scenario's result that break
// a bound the program promises, and voids the run when the KV
// observation did not see the run RunScenario gives. It runs once per
// run: every unit's result has the same digest.
func checkBounds(t *tally, sc core.Scenario, res *core.Result, kv *overcommit) {
	checkAccuracy(t, sc, res)
	kv.miss(t)
	kv.check(t, sc, res)
}

// resultDigest fingerprints a scenario's simulated outcome.
func resultDigest(res *core.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// streamTokens is the number of tokens a generative scenario's stream
// asks for (0 for classification).
func streamTokens(sc core.Scenario) (int, error) {
	if !sc.Generative() {
		return 0, nil
	}
	stream, err := workload.GenByName(sc.Workload, sc.N, 2*sc.RateMult, sc.Seed)
	if err != nil {
		return 0, err
	}
	tokens := 0
	for it := stream.Iter(); ; {
		r, ok := it.Next()
		if !ok {
			return tokens, nil
		}
		tokens += r.GenLen
	}
}

// p99Ratio is Apparate's p99 latency (TPT for generative) over the
// vanilla run's: below 1 is a tail win.
func p99Ratio(r *core.Result) float64 {
	if r.Vanilla.P99ms == 0 {
		return 0
	}
	return r.Apparate.P99ms / r.Vanilla.P99ms
}

func okFrac(t *tally) float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed())/float64(t.attempted)
}

// costMetrics turns unit costs into the host-cost metrics; reqs is the
// number of simulated requests one unit serves, vanilla and Apparate
// runs together. The median wall time is printed but not reported: on a
// shared virtual machine the time the hypervisor takes the CPU away
// moves it by more than a quarter between sets of runs, while CPU time
// does not count that time.
func costMetrics(costs []unitCost, reqs float64, out io.Writer) map[string]float64 {
	var wall, cpu, allocs, bytes []float64
	for _, c := range costs {
		wall = append(wall, c.wall)
		cpu = append(cpu, c.cpu)
		allocs = append(allocs, float64(c.mallocs)/reqs)
		bytes = append(bytes, float64(c.bytes)/reqs)
	}
	fmt.Fprintf(out, "units %d median wall %.4f s\n", len(costs), median(wall))
	return map[string]float64{
		"cpu_s":               median(cpu),
		"allocs_per_req":      median(allocs),
		"alloc_bytes_per_req": median(bytes),
	}
}

// measureSweep is the end-to-end run of sweep-mixed: each timed unit
// is what apparate-sweep does for the grid --seed names — expand, run on
// the worker pool with observability files, emit the result JSON.
func measureSweep(w workloadDef, cfg config, t *tally, out io.Writer) (map[string]float64, error) {
	grid := w.grid(cfg.seed, cfg.size)
	scs, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	reqs := 0
	for _, sc := range scs {
		reqs += sc.N
	}
	t.attempted = int64(reqs)
	var first []sweep.Result
	var digest string
	var unitErr error
	costs, setups, err := timedLoop(cfg, func() error {
		_, err := grid.Expand()
		return err
	}, func() unitCost {
		dir, err := os.MkdirTemp(cfg.workDir, "grid-")
		if err != nil {
			unitErr = err
			return unitCost{}
		}
		defer func() {
			if err := os.RemoveAll(dir); err != nil {
				unitErr = err
			}
		}()
		var results []sweep.Result
		var runErr error
		c := timeUnit(func() { results, runErr = runGrid(grid, workers(), dir) })
		d, err := dirDigest(dir)
		switch {
		case runErr != nil:
			t.void("grid: %v", runErr)
			return c
		case err != nil:
			t.void("grid output: %v", err)
			return c
		case digest == "":
			digest = d
		case d != digest:
			t.void("grid output digest %s differs from the run's first %s", d, digest)
			return c
		}
		if checkGrid(t, results) && first == nil {
			first = results
		}
		return c
	})
	if err == nil {
		err = unitErr
	}
	if err != nil {
		return nil, err
	}
	gridAccuracy(t, first)
	fmt.Fprintf(out, "digest grid seed=%d %s\n", grid.Seed, digest)
	fmt.Fprintf(out, "scenarios %d workers %d\n", len(scs), workers())
	m := costMetrics(costs, float64(2*reqs), out)
	m["setup_s"] = median(setups)
	m["ok_frac"] = okFrac(t)
	rs := make([]*core.Result, len(first))
	for i := range first {
		rs[i] = &first[i].Result
	}
	simMetrics(m, rs)
	return m, nil
}

// runGrid is one apparate-sweep invocation: expand the grid, run it on
// the pool writing observability files into dir, and emit the result
// JSON there.
func runGrid(grid sweep.Grid, workers int, dir string) ([]sweep.Result, error) {
	scs, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	results := sweep.Run(scs, sweep.Options{Workers: workers, ObsDir: dir})
	return results, writeFile(filepath.Join(dir, "result.json"), func(w io.Writer) error {
		return sweep.WriteJSON(w, results)
	})
}

// checkGrid voids a grid's output when a scenario failed or did not
// serve all its requests, and reports whether the output can be used.
func checkGrid(t *tally, results []sweep.Result) bool {
	ok := true
	for _, r := range results {
		sc := r.Scenario
		switch {
		case r.Err != "":
			t.void("%s: %s", sc.Key(), r.Err)
			ok = false
		case r.Requests != sc.N:
			t.void("%s: %d requests served, want %d", sc.Key(), r.Requests, sc.N)
			ok = false
		}
	}
	return ok
}

// gridAccuracy fails the requests of each classification scenario of a
// grid whose accuracy loss exceeds its limit.
func gridAccuracy(t *tally, results []sweep.Result) {
	for i := range results {
		checkAccuracy(t, results[i].Scenario, &results[i].Result)
	}
}

// checkAccuracy fails a classification scenario's requests when its
// realized accuracy loss exceeds the scenario's limit.
func checkAccuracy(t *tally, sc core.Scenario, res *core.Result) {
	if !sc.Generative() && res.AccDelta > sc.AccLoss {
		t.miss(sc.N, fmt.Sprintf("accuracy loss above the limit: %s (%.4f > %g)", sc.Identity(), res.AccDelta, sc.AccLoss))
	}
}

func writeFile(name string, write func(io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirDigest fingerprints every file in dir, names and bytes, in name
// order.
func dirDigest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
