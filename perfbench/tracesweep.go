package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedSweep is sweep-mixed's per-layer run. An instrumented serial
// pass expands the grid, runs each scenario the way the pool's worker
// does (core.RunScenarioObs plus the observability files), and emits the
// result JSON, timing each step; a second serial pass runs each scenario
// through plain core.RunScenario for the observability overhead. The
// grid then runs through sweep.Run at one worker and at one worker per
// CPU, and all three outputs — result JSON and observability files —
// must be byte-identical.
func tracedSweep(w workloadDef, cfg config, t *tally, out io.Writer) (map[string]float64, error) {
	grid := w.grid(cfg.seed, cfg.size)
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	mkdir := func() (string, error) {
		d, err := os.MkdirTemp(cfg.workDir, "grid-")
		if err == nil {
			dirs = append(dirs, d)
		}
		return d, err
	}
	dirS, err := mkdir()
	if err != nil {
		return nil, err
	}

	runtime.GC()
	t0 := time.Now()
	scs, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	expand := time.Since(t0)
	reqs := 0
	for _, sc := range scs {
		reqs += sc.N
	}
	var obsSum, write, slowest time.Duration
	var events, traceBytes int64
	results := make([]sweep.Result, len(scs))
	for i, sc := range scs {
		t1 := time.Now()
		res, od, err := core.RunScenarioObs(sc)
		t2 := time.Now()
		if err != nil {
			results[i] = sweep.Result{Result: core.Result{Scenario: sc}, Err: err.Error()}
		} else {
			results[i] = sweep.Result{Result: *res}
			n, err := writeSinks(od, dirS, i)
			if err != nil {
				results[i].Err = err.Error()
			}
			traceBytes += n
			if od.Trace != nil {
				events += int64(od.Trace.Len())
			}
		}
		obsSum += t2.Sub(t1)
		write += time.Since(t2)
		slowest = max(slowest, time.Since(t1))
	}
	if err := writeFile(filepath.Join(dirS, "result.json"), func(w io.Writer) error {
		return sweep.WriteJSON(w, results)
	}); err != nil {
		return nil, err
	}
	serialWall := time.Since(t0)
	t.attempted = int64(reqs)
	if checkGrid(t, results) {
		gridAccuracy(t, results)
	}

	runtime.GC()
	var plainSum time.Duration
	for _, sc := range scs {
		t1 := time.Now()
		_, err := core.RunScenario(sc)
		plainSum += time.Since(t1)
		if err != nil {
			t.void("%s: %v", sc.Key(), err)
		}
	}

	// The pool at one worker is the untraced counterpart of the serial
	// pass; at one worker per CPU it is what sweep-mixed times.
	dir1, err := mkdir()
	if err != nil {
		return nil, err
	}
	var res1 []sweep.Result
	var err1 error
	wall1 := timeUnit(func() { res1, err1 = runGrid(grid, 1, dir1) }).wall
	if err1 != nil {
		return nil, err1
	}
	checkGrid(t, res1)

	dirN, err := mkdir()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tN := time.Now()
	scsN, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	resN := sweep.Run(scsN, sweep.Options{Workers: workers(), ObsDir: dirN})
	t5 := time.Now()
	if err := writeFile(filepath.Join(dirN, "result.json"), func(w io.Writer) error {
		return sweep.WriteJSON(w, resN)
	}); err != nil {
		return nil, err
	}
	emit := time.Since(t5)
	poolWall := t5.Sub(t4)
	wallN := time.Since(tN)
	checkGrid(t, resN)

	var digests []string
	for _, d := range []string{dirS, dir1, dirN} {
		dg, err := dirDigest(d)
		if err != nil {
			return nil, err
		}
		digests = append(digests, dg)
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.void("grid outputs differ: serial %s, 1 worker %s, %d workers %s", digests[0], digests[1], workers(), digests[2])
	}
	fmt.Fprintf(out, "digest grid seed=%d %s\n", grid.Seed, digests[2])
	fmt.Fprintf(out, "scenarios %d workers %d\n", len(scs), workers())

	sec := func(d time.Duration) float64 { return d.Seconds() }
	m := zeroLayers()
	m["sweep.scenarios"] = float64(len(scs))
	m["sweep.expand_s"] = sec(expand)
	m["sweep.emit_s"] = sec(emit)
	m["sweep.serial_sum_s"] = sec(plainSum)
	m["sweep.parallel_efficiency"] = sec(plainSum) / (float64(workers()) * sec(poolWall))
	m["sweep.slowest_share"] = sec(slowest) / sec(poolWall)
	m["obs.events"] = float64(events)
	m["obs.trace_bytes"] = float64(traceBytes)
	m["obs.write_s"] = sec(write)
	m["obs.overhead_s"] = sec(obsSum - plainSum)
	m["bench.wall_s"] = sec(wallN)
	m["bench.trace_overhead_frac"] = sec(serialWall)/wall1 - 1
	m["core.fail_frac"] = 1 - okFrac(t)
	var p99, drop float64
	for _, r := range resN {
		p99 += r.P99Win
		drop += r.Apparate.DropRate
	}
	if n := float64(len(resN)); n > 0 {
		m["core.p99_win_pct"] = p99 / n
		m["core.drop_frac"] = drop / n
	}
	return m, nil
}

// writeSinks writes a scenario's observability output under the names
// the sweep pool uses and returns the trace's size in bytes.
func writeSinks(od *core.ObsData, dir string, idx int) (int64, error) {
	var n int64
	if od.Trace != nil {
		name := filepath.Join(dir, fmt.Sprintf("trace_%03d.jsonl", idx))
		if err := writeFile(name, func(w io.Writer) error {
			cw := &countingWriter{w: w}
			err := od.Trace.WriteJSONL(cw)
			n = cw.n
			return err
		}); err != nil {
			return n, err
		}
	}
	if od.Timeline != nil {
		name := filepath.Join(dir, fmt.Sprintf("timeline_%03d.csv", idx))
		if err := writeFile(name, od.Timeline.WriteCSV); err != nil {
			return n, err
		}
	}
	return n, nil
}
