package controller

import (
	"math"

	"repro/internal/ramp"
)

// EvalResult summarizes a threshold configuration replayed over a record
// window.
type EvalResult struct {
	// AccLoss is the fraction of inputs whose released result would
	// disagree with the original model.
	AccLoss float64
	// SavingFrac is the mean per-input latency saving as a fraction of
	// the model's bs=1 inference latency (ramp overheads included).
	SavingFrac float64
	// ExitCount[i] is the number of window inputs exiting at active
	// ramp i.
	ExitCount []int
}

// EvalThresholds replays the window under the given thresholds and
// reports accuracy and latency effects, accounting for inter-ramp
// dependencies (an input exits at the *earliest* ramp whose score is
// below threshold, see exitRamp). Inputs recorded before a ramp was
// activated hold no observation there and never exit at it. No
// inference is required — exactly the §3.2 evaluation mechanism.
func EvalThresholds(cfg *ramp.Config, recs []Record, thresholds []float64) EvalResult {
	res := EvalResult{ExitCount: make([]int, len(cfg.Active))}
	if len(recs) == 0 {
		return res
	}
	wrong := 0
	totalSaving := 0.0
	allOverhead := cfg.OverheadFrac()
	var buf [stackCols]int
	cols := columns(buf[:0], cfg)
	for _, rec := range recs {
		exit, ob := exitRamp(rec, cols, thresholds)
		if exit < 0 {
			// Non-exits save nothing (and pay all ramp overheads,
			// already in the baseline of "serving with this ramp set").
			continue
		}
		res.ExitCount[exit]++
		if !ob.Match {
			wrong++
		}
		exitOverhead := 0.0
		for _, r := range cfg.Active[:exit+1] {
			exitOverhead += r.Style.OverheadFrac
		}
		// Saving relative to running the full model with all ramps:
		// forgone layers minus the overhead of ramps up to the exit.
		totalSaving += (1 + allOverhead) - (cfg.Active[exit].Site.Frac + exitOverhead)
	}
	n := float64(len(recs))
	res.AccLoss = float64(wrong) / n
	res.SavingFrac = totalSaving / n
	return res
}

// TuneResult is the outcome of a threshold search.
type TuneResult struct {
	Thresholds []float64
	SavingFrac float64
	AccLoss    float64
	// Evals is the number of configuration evaluations performed, the
	// cost measure behind Figure 10.
	Evals int
}

// GreedySearch is Algorithm 1: hill climbing from all-zero thresholds
// with per-ramp multiplicative-increase/multiplicative-decrease step
// sizes. Each round tentatively raises each ramp's threshold in
// isolation, then commits the single change with the best additional
// saving per unit of additional accuracy loss. Steps double on a
// productive direction and halve when a ramp oversteps the accuracy
// boundary; the search stops when every step has collapsed to minStep
// and no move is admissible.
func GreedySearch(cfg *ramp.Config, recs []Record, accBudget float64) TuneResult {
	n := len(cfg.Active)
	thresholds := make([]float64, n)
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = initStep
	}
	cur := EvalThresholds(cfg, recs, thresholds)
	evals := 1
	for {
		bestRamp := -1
		bestGain := 0.0
		var bestEval EvalResult
		var bestThreshold float64
		progressPossible := false
		for i := 0; i < n; i++ {
			if thresholds[i] >= 1 {
				continue // threshold saturated
			}
			progressPossible = true
			cand := thresholds[i] + steps[i]
			if cand > 1 {
				cand = 1
			}
			old := thresholds[i]
			thresholds[i] = cand
			ev := EvalThresholds(cfg, recs, thresholds)
			evals++
			thresholds[i] = old
			if ev.AccLoss > accBudget {
				continue // overstepped the accuracy boundary
			}
			dSav := ev.SavingFrac - cur.SavingFrac
			if dSav <= 0 {
				continue
			}
			dLoss := ev.AccLoss - cur.AccLoss
			gain := dSav / (dLoss + 1e-6)
			if bestRamp < 0 || gain > bestGain {
				bestRamp, bestGain, bestEval, bestThreshold = i, gain, ev, cand
			}
		}
		if !progressPossible {
			break
		}
		if bestRamp >= 0 {
			thresholds[bestRamp] = bestThreshold
			cur = bestEval
			steps[bestRamp] *= 2 // promising direction: speed up
			continue
		}
		// No admissible move this round: every ramp either overstepped
		// the accuracy boundary or has no productive direction at its
		// current step. Shrink steps to hone in on the boundary; stop
		// once every step has bottomed out.
		allMin := true
		for i := range steps {
			if steps[i] > minStep {
				steps[i] /= 2
				if steps[i] < minStep {
					steps[i] = minStep
				}
				allMin = false
			}
		}
		if allMin {
			break
		}
	}
	return TuneResult{Thresholds: thresholds, SavingFrac: cur.SavingFrac, AccLoss: cur.AccLoss, Evals: evals}
}

// GridSearch exhaustively evaluates thresholds over a uniform grid with
// the given step (the paper's comparison baseline, O((1/S)^R)). It
// returns the best-saving configuration within the accuracy budget.
func GridSearch(cfg *ramp.Config, recs []Record, accBudget, step float64) TuneResult {
	n := len(cfg.Active)
	levels := int(math.Round(1/step)) + 1
	thresholds := make([]float64, n)
	best := TuneResult{Thresholds: make([]float64, n)}
	evals := 0
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			ev := EvalThresholds(cfg, recs, thresholds)
			evals++
			if ev.AccLoss <= accBudget && ev.SavingFrac > best.SavingFrac {
				copy(best.Thresholds, thresholds)
				best.SavingFrac = ev.SavingFrac
				best.AccLoss = ev.AccLoss
			}
			return
		}
		for l := 0; l < levels; l++ {
			thresholds[i] = float64(l) * step
			walk(i + 1)
		}
		thresholds[i] = 0
	}
	walk(0)
	best.Evals = evals
	return best
}
