// Package core is the top-level API of the Apparate reproduction: it
// ties together model preparation (§3.1), the serving simulator, and the
// runtime controller (§3.2–3.3) behind the workflow of Figure 6. A user
// registers a model and an accuracy constraint; Apparate configures the
// model with early-exit ramps, deploys it to a serving platform, and
// continually adapts thresholds and ramp positions while results exit
// early and inputs run to completion.
//
// Classification:
//
//	m := model.ResNet50()
//	sys := core.New(m, exitsim.KindVideo, core.Config{})
//	stats := sys.Serve(workload.Video(0, 10000, 30, 1))
//
// Generative:
//
//	g := core.NewGen(model.T5Large(), exitsim.KindCNNDailyMail, core.Config{})
//	stats := g.Serve(workload.CNNDailyMail(500, 3, 1))
package core

import (
	"repro/internal/controller"
	"repro/internal/exitrule"
	"repro/internal/exitsim"
	"repro/internal/genserve"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ramp"
	"repro/internal/serving"
	"repro/internal/workload"
)

// Config carries Apparate's two user-facing parameters (§3) plus
// deployment knobs; zero values take the paper's defaults.
type Config struct {
	// AccuracyConstraint is the tolerable accuracy loss relative to the
	// original model (default 0.01, i.e. 1%).
	AccuracyConstraint float64
	// RampBudget bounds active-ramp overhead as a fraction of worst-case
	// latency — the paper's "ramp aggression" (default 0.02).
	RampBudget float64
	// Style selects the ramp architecture (default: the lightweight
	// pooling+FC ramp of §3.1).
	Style ramp.Style
	// Platform selects the serving platform (default Clockwork).
	Platform serving.Platform
	// SLOms overrides the model's default SLO of 2× its bs=1 latency.
	SLOms float64
	// MaxBatch caps serving batch sizes (default 16).
	MaxBatch int
	// DisableRampAdjust turns off the §3.3 loop (ablation).
	DisableRampAdjust bool
	// ExitRule selects the exit strategy by name ("entropy" default,
	// "windowed-K", "patience-P"); Apparate's controller is agnostic to
	// the technique (§5).
	ExitRule string
	// GenSlots overrides the generative engine's continuous-batching slot
	// count (default 8).
	GenSlots int
	// GenFlush overrides the generative engine's pending-token flush
	// threshold (default 8).
	GenFlush int
	// KVBlocks bounds the generative engine's KV-block pool (0 =
	// unbounded: admission waits only for a free decode slot).
	KVBlocks int
	// BlockTokens is the KV-block granularity in tokens (0 = the engine
	// default of 16; meaningful with KVBlocks > 0).
	BlockTokens int
	// PrefixHitRatio is the generative prefix-cache hit probability in
	// [0,1]; hits skip prompt prefill and are not charged KV blocks for
	// the cached prefix.
	PrefixHitRatio float64
	// PrefillChunkTokens chunks generative prompts longer than this
	// threshold, interleaving prefill with decode on the engine clock
	// (0 = monolithic prefill).
	PrefillChunkTokens int
	// Seed drives generative engine-internal randomness (the gen.prefix
	// stream); only meaningful when PrefixHitRatio > 0.
	Seed uint64
	// Metrics selects the latency/TPT recorder implementation: exact
	// (every sample kept, O(n) memory) or sketch (log-scaled histogram,
	// O(1) memory, ~0.5% percentile error). Default exact.
	Metrics metrics.Mode
}

func (c Config) withDefaults() Config {
	if c.AccuracyConstraint == 0 {
		c.AccuracyConstraint = 0.01
	}
	if c.RampBudget == 0 {
		c.RampBudget = 0.02
	}
	if c.Style.Name == "" {
		c.Style = ramp.StyleDefault
	}
	return c
}

// System is a prepared classification serving system.
type System struct {
	Model   *model.Model
	Handler *serving.ApparateHandler
	Opts    serving.Options
	cfg     Config
}

// New prepares the model with early exits for the given workload kind:
// ramp sites from the cut-vertex analysis, the budget-maximal evenly
// spaced initial deployment with zero thresholds, and a controller
// enforcing the accuracy constraint.
func New(m *model.Model, kind exitsim.Kind, cfg Config) *System {
	cfg = cfg.withDefaults()
	h := newApparate(m, kind, cfg)
	slo := cfg.SLOms
	if slo == 0 {
		slo = m.SLO()
	}
	return &System{
		Model:   m,
		Handler: h,
		Opts: serving.Options{
			Platform: cfg.Platform,
			SLOms:    slo,
			MaxBatch: cfg.MaxBatch,
			Metrics:  cfg.Metrics,
		},
		cfg: cfg,
	}
}

// newApparate builds one replica's Apparate handler: the default ramp
// deployment (redeployed in cfg.Style when another architecture is
// asked for), a controller enforcing the accuracy constraint, and the
// configured exit rule. cfg must have its defaults filled.
func newApparate(m *model.Model, kind exitsim.Kind, cfg Config) *serving.ApparateHandler {
	h := serving.NewApparate(m, exitsim.ProfileFor(m, kind), cfg.RampBudget, controller.Config{
		AccConstraint:     cfg.AccuracyConstraint,
		DisableRampAdjust: cfg.DisableRampAdjust,
	})
	if cfg.Style.Name != ramp.StyleDefault.Name {
		// Redeploy with the requested ramp architecture.
		h.Cfg.DeployInitial(cfg.Style)
	}
	if cfg.ExitRule != "" {
		rule, err := exitrule.ByName(cfg.ExitRule)
		if err != nil {
			panic(err) // registration-time misconfiguration
		}
		h.Cfg.Rule = rule
	}
	return h
}

// Serve runs the workload through the platform with Apparate managing
// exits. The stream is consumed through a fresh iterator, so the same
// stream can be served any number of times.
func (s *System) Serve(stream *workload.Stream) *serving.Stats {
	return serving.Run(stream.Iter(), s.Handler, s.Opts)
}

// ServeVanilla runs the same workload with the unmodified model on the
// same platform configuration, for comparison.
func (s *System) ServeVanilla(stream *workload.Stream) *serving.Stats {
	return serving.Run(stream.Iter(), &serving.VanillaHandler{Model: s.Model}, s.Opts)
}

// Controller exposes the runtime controller for inspection.
func (s *System) Controller() *controller.Controller { return s.Handler.Ctl }

// GenSystem is a prepared generative serving system.
type GenSystem struct {
	Model  *model.Model
	Engine *genserve.Engine
	Policy *genserve.ApparateGen
}

// NewGen prepares a generative model: the decode head doubles as the
// ramp (no training needed, §3.1), a single adjustable ramp protects
// tail TPT, and parallel decoding recovers exit savings (§3.4).
func NewGen(m *model.Model, kind exitsim.Kind, cfg Config) *GenSystem {
	cfg = cfg.withDefaults()
	profile := exitsim.ProfileFor(m, kind)
	eng := genserve.NewEngine(m, profile)
	eng.Metrics = cfg.Metrics
	if cfg.GenSlots > 0 {
		eng.MaxConcurrent = cfg.GenSlots
	}
	if cfg.GenFlush > 0 {
		eng.FlushCount = cfg.GenFlush
	}
	eng.KVBlocks = cfg.KVBlocks
	eng.BlockTokens = cfg.BlockTokens
	eng.PrefixHitRatio = cfg.PrefixHitRatio
	eng.PrefillChunkTokens = cfg.PrefillChunkTokens
	eng.Seed = cfg.Seed
	return &GenSystem{
		Model:  m,
		Engine: eng,
		Policy: genserve.NewApparateGen(m, profile, cfg.AccuracyConstraint),
	}
}

// Serve runs the generative workload under Apparate's token exiting.
func (g *GenSystem) Serve(stream *workload.GenStream) *genserve.Stats {
	return g.Engine.Run(stream, g.Policy)
}

// ServeVanilla runs the workload without exits, for comparison.
func (g *GenSystem) ServeVanilla(stream *workload.GenStream) *genserve.Stats {
	return g.Engine.Run(stream, genserve.VanillaGen{})
}
