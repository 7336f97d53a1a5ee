package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/sweep"
)

// size scales a workload down from its benchmark size; the zero value is
// the benchmark size, and the smoke tests pass tiny ones to drive the
// same code in well under a second.
type size struct {
	// N is the request (or sequence) count of a scenario workload.
	N int
	// GridN and GridGenN are sweep-mixed's per-scenario request and
	// sequence counts.
	GridN, GridGenN int
}

// workloadDef is one named benchmark workload: either a single scenario
// run through core.RunScenario, or a sweep grid run through the sweep
// package's pool.
type workloadDef struct {
	name string
	// scenario builds the scenario for one seed (nil for sweep-mixed).
	scenario func(seed uint64, sz size) core.Scenario
	// grid builds the sweep grid for one seed (nil for scenario
	// workloads).
	grid func(seed uint64, sz size) sweep.Grid
}

func orDefault(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

var workloads = []workloadDef{
	{
		name: "nlp-single",
		scenario: func(seed uint64, sz size) core.Scenario {
			return core.Scenario{
				Model: "bert-base", Workload: "amazon", Platform: "clockwork",
				N: orDefault(sz.N, 100000), Seed: seed, Metrics: "exact",
			}
		},
	},
	{
		name: "cv-cluster",
		scenario: func(seed uint64, sz size) core.Scenario {
			return core.Scenario{
				Model: "resnet50", Workload: "video-1", Platform: "clockwork",
				Replicas: 4, Dispatch: "least-loaded", RateMult: 4,
				RateSchedule: "square:60/0.5/2.5",
				Faults:       "crash:r1@2000+500", Retry: "attempts=2",
				N: orDefault(sz.N, 100000), Seed: seed, Metrics: "sketch",
			}
		},
	},
	{
		name: "gen-kv",
		scenario: func(seed uint64, sz size) core.Scenario {
			return core.Scenario{
				Model: "t5-large", Workload: "cnn-dailymail",
				KVBlocks: 48, PrefixHit: 0.5, PrefillChunk: 256,
				N: orDefault(sz.N, 20000), Seed: seed,
			}
		},
	},
	{
		name: "sweep-mixed",
		grid: func(seed uint64, sz size) sweep.Grid {
			return sweep.Grid{
				Models:    []string{"resnet18", "resnet50", "distilbert-base", "bert-base", "t5-large"},
				Workloads: []string{"video-0", "video-1", "amazon", "imdb", "cnn-dailymail"},
				Replicas:  []int{1, 2},
				Metrics:   []string{"exact", "sketch"},
				KVBlocks:  []int{0, 64},
				N:         orDefault(sz.GridN, 5000),
				GenN:      orDefault(sz.GridGenN, 100),
				Trace:     true,
				Timeline:  true,
				Seed:      seed,
			}
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// workers is the sweep pool width: one worker per CPU.
func workers() int { return runtime.NumCPU() }
