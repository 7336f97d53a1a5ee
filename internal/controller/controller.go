// Package controller implements Apparate's runtime adaptation (§3.2–3.3):
// an accuracy monitor over released results, accuracy-aware threshold
// tuning via greedy hill climbing with multiplicative step-size control
// (Algorithm 1), and latency-focused ramp adjustment driven by per-ramp
// utility scores and upper-bound exit rates (Algorithm 2, Figure 11).
//
// The controller consumes the per-ramp observations that Apparate records
// for every input at every active ramp — possible because inputs always
// run to the end of the model — and never needs extra inference to
// evaluate a candidate configuration.
package controller

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/ramp"
)

// Record is the per-input profiling data streamed from the GPU: one
// observation per feasible ramp site, in cfg.Sites order, so the
// history survives ramp-set changes. A site that had no active ramp
// when the input was recorded holds Err NaN, which is below no
// threshold: the input can never exit there.
type Record []ramp.Observation

// absent fills the columns of sites that were inactive at recording.
var absent = ramp.Observation{Err: math.NaN()}

// columns appends to dst the record column of each active ramp, in
// cfg.Active order. Active ramps and feasible sites are both ordered by
// strictly increasing depth, so this is one forward merge walk. Every
// active ramp must sit at one of the sites.
func columns(dst []int, cfg *ramp.Config) []int {
	col := 0
	for _, r := range cfg.Active {
		for cfg.Sites[col].NodeID != r.Site.NodeID {
			col++
		}
		dst = append(dst, col)
	}
	return dst
}

// Fill files one input's per-ramp observations (an Outcome.PerRamp, in
// cfg.Active order) into rec, reusing rec's storage when it has room
// for a column per feasible site, and returns the row.
func Fill(rec Record, cfg *ramp.Config, perRamp []ramp.Observation) Record {
	if cap(rec) < len(cfg.Sites) {
		rec = make(Record, len(cfg.Sites))
	}
	rec = rec[:len(cfg.Sites)]
	for col := range rec {
		rec[col] = absent
	}
	var buf [stackCols]int
	for i, col := range columns(buf[:0], cfg) {
		rec[col] = perRamp[i]
	}
	return rec
}

// exitRamp is the replay rule shared by threshold evaluation and
// utility scoring: the record exits at the earliest active ramp whose
// recorded error score is below its threshold. cols are the active
// ramps' record columns (see columns). It returns that ramp's active
// index and observation, or -1 if the record runs to the end.
func exitRamp(rec Record, cols []int, thresholds []float64) (int, ramp.Observation) {
	for i, col := range cols {
		if ob := rec[col]; ob.Err < thresholds[i] {
			return i, ob
		}
	}
	return -1, ramp.Observation{}
}

// stackCols sizes the stack buffers that hold the active ramps' record
// columns during a replay; larger active sets spill to the heap.
const stackCols = 16

// The controller's cadences and search steps.
const (
	// accWindow is the trigger window length (paper default 16).
	accWindow = 16
	// recordWindow is how many recent records tuning replays (the
	// paper tunes on "the last window of data"; 512 is wide enough that
	// threshold evaluations are statistically stable for
	// low-continuity workloads, short enough to track drift).
	recordWindow = 512
	// adjustEvery is the ramp-adjustment period in samples.
	adjustEvery = 128
	// initStep and minStep are the starting and smallest threshold
	// steps of the greedy search (paper: 0.1 and 0.01).
	initStep = 0.1
	minStep  = 0.01
)

// Config holds the controller's user-facing knobs.
type Config struct {
	// AccConstraint is the maximum tolerable accuracy loss relative to
	// the original model (zero takes the paper default 0.01).
	AccConstraint float64
	// DisableRampAdjust turns off Algorithm 2 (used by the §4.5
	// ablation).
	DisableRampAdjust bool
}

// Controller adapts one model replica's early-exit configuration.
type Controller struct {
	Cfg  *ramp.Config
	Opts Config

	acc *metrics.AccuracyWindow
	// rows is the record window as a ring of recordWindow rows carved
	// from one array, listed twice: rows[k] and rows[k+recordWindow]
	// share storage, so any run of consecutive ring slots, oldest
	// first, is a plain subslice and the window is never copied.
	rows   []Record
	next   int
	filled int

	sinceAdjust int

	// negStreak counts consecutive adjustment rounds in which a ramp
	// (keyed by site node ID) showed negative utility; deactivation
	// requires persistence so transient regimes (a hostile scene, a new
	// category) do not destroy ramp positions that threshold tuning has
	// already neutralized at far lower cost.
	negStreak map[int]int

	// probeClock alternates the all-positive probing rule between
	// earlier-savings and coverage-gap additions.
	probeClock int

	// Counters for introspection and experiments.
	TuneRounds   int
	AdjustRounds int
}

// New returns a controller managing the given ramp configuration.
func New(cfg *ramp.Config, opts Config) *Controller {
	if opts.AccConstraint == 0 {
		opts.AccConstraint = 0.01
	}
	width := len(cfg.Sites)
	cells := make(Record, recordWindow*width)
	rows := make([]Record, 2*recordWindow)
	for k := 0; k < recordWindow; k++ {
		row := cells[k*width : (k+1)*width : (k+1)*width]
		rows[k], rows[k+recordWindow] = row, row
	}
	return &Controller{
		Cfg:       cfg,
		Opts:      opts,
		acc:       metrics.NewAccuracyWindow(accWindow),
		rows:      rows,
		negStreak: make(map[int]int),
	}
}

// Observe ingests the outcome of one served input: records per-ramp
// profiling data, updates the accuracy window, and runs the two control
// loops at their respective cadences. It returns true if the exit
// configuration changed.
func (c *Controller) Observe(out ramp.Outcome) bool {
	c.record(out.PerRamp)
	c.acc.Observe(out.Correct)

	changed := false
	// Fast loop: threshold tuning whenever windowed accuracy violates
	// the constraint (§3.2).
	if c.acc.Full() && c.acc.Accuracy() < 1-c.Opts.AccConstraint {
		c.TuneThresholds()
		c.acc.Reset() // judge the new configuration on fresh outcomes
		changed = true
	}
	// Slow loop: periodic ramp adjustment (§3.3). With adjustment
	// disabled (§4.5 ablation), the cadence degrades to a plain
	// threshold-tuning round so exiting still bootstraps off the initial
	// all-zero thresholds.
	c.sinceAdjust++
	if c.sinceAdjust >= adjustEvery {
		c.sinceAdjust = 0
		if c.Opts.DisableRampAdjust {
			c.TuneThresholds()
			changed = true
		} else if c.AdjustRamps() {
			changed = true
		}
	}
	return changed
}

// record files one input's observations over the oldest ring slot.
func (c *Controller) record(perRamp []ramp.Observation) {
	Fill(c.rows[c.next], c.Cfg, perRamp)
	c.next = (c.next + 1) % recordWindow
	if c.filled < recordWindow {
		c.filled++
	}
}

// window returns the recorded window, oldest first. The rows are the
// ring's own storage: valid until the next record.
func (c *Controller) window() []Record {
	start := (c.next - c.filled + recordWindow) % recordWindow
	return c.rows[start : start+c.filled]
}

// TuneThresholds runs one greedy tuning round and installs the resulting
// thresholds. The search runs on the older 60% of the record window and
// is validated on the held-out recent 40%: maximizing savings subject to
// a noisy loss estimate systematically selects configurations whose loss
// is underestimated (a winner's curse), so candidates violating the
// budget on held-out data are scaled down until they comply. Monotone
// loss in thresholds guarantees convergence.
func (c *Controller) TuneThresholds() {
	recs := c.window()
	if len(recs) == 0 || len(c.Cfg.Active) == 0 {
		return
	}
	c.TuneRounds++
	split := len(recs) * 3 / 5
	train, validate := recs[:split], recs[split:]
	if len(train) == 0 || len(validate) == 0 {
		res := GreedySearch(c.Cfg, recs, c.tuneBudget())
		c.Cfg.SetThresholds(res.Thresholds)
		return
	}
	res := GreedySearch(c.Cfg, train, c.tuneBudget())
	ts := res.Thresholds
	for i := 0; i < 12; i++ {
		if EvalThresholds(c.Cfg, validate, ts).AccLoss <= c.tuneBudget() {
			break
		}
		for j := range ts {
			ts[j] *= 0.75
		}
	}
	c.Cfg.SetThresholds(ts)
}

// tuneBudget is the accuracy-loss target handed to threshold searches:
// the user constraint with headroom for residual estimation noise and
// detection lag.
func (c *Controller) tuneBudget() float64 {
	return 0.6 * c.Opts.AccConstraint
}
