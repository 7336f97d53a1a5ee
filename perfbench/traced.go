package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/exitrule"
	"repro/internal/exitsim"
	"repro/internal/faults"
	"repro/internal/genserve"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ramp"
	"repro/internal/serving"
	"repro/internal/trace"
	"repro/internal/workload"
)

// built is a scenario's serving system, constructed from the layers'
// public APIs exactly as core.RunScenario constructs it.
type built struct {
	kind exitsim.Kind
	mode metrics.Mode

	// Classification: one core.System, or the cluster options plus one
	// Apparate handler per replica.
	stream   *workload.Stream
	sys      *core.System
	copts    serving.ClusterOptions
	handlers []*serving.ApparateHandler

	// Generative.
	gstream *workload.GenStream
	gen     *core.GenSystem
}

// kindFor maps a workload name to its calibration kind, as core does.
func kindFor(name string) exitsim.Kind {
	switch name {
	case "amazon":
		return exitsim.KindAmazon
	case "imdb":
		return exitsim.KindIMDB
	case "cnn-dailymail":
		return exitsim.KindCNNDailyMail
	case "squad":
		return exitsim.KindSQuAD
	}
	return exitsim.KindVideo
}

// build prepares a normalized scenario's model, stream and serving
// system. The benchmark's workloads use fixed replica counts, so the
// autoscaled path is not rebuilt.
func build(sc core.Scenario) (*built, error) {
	if sc.Autoscale != "" {
		return nil, fmt.Errorf("%s: autoscaled scenarios are not rebuilt", sc.Key())
	}
	m, err := model.ByName(sc.Model)
	if err != nil {
		return nil, err
	}
	b := &built{kind: kindFor(sc.Workload)}
	b.mode, _ = metrics.ParseMode(sc.Metrics)
	cfg := core.Config{
		AccuracyConstraint: sc.AccLoss,
		RampBudget:         sc.RampBudget,
		ExitRule:           sc.ExitRule,
		Metrics:            b.mode,
	}
	if sc.Generative() {
		b.gstream, err = workload.GenByName(sc.Workload, sc.N, 2*sc.RateMult, sc.Seed)
		if err != nil {
			return nil, err
		}
		cfg.GenSlots, cfg.GenFlush = sc.GenSlots, sc.GenFlush
		cfg.KVBlocks, cfg.BlockTokens = sc.KVBlocks, sc.BlockTokens
		cfg.PrefixHitRatio, cfg.PrefillChunkTokens = sc.PrefixHit, sc.PrefillChunk
		cfg.Seed = sc.Seed
		b.gen = core.NewGen(m, b.kind, cfg)
		return b, nil
	}

	qps := 30 * sc.RateMult
	if !workload.IsVideo(sc.Workload) {
		qps = trace.TargetQPS(m) * sc.RateMult * float64(sc.Replicas)
	}
	sched, err := trace.ParseSchedule(sc.RateSchedule)
	if err != nil {
		return nil, err
	}
	if b.stream, err = workload.ByNameSched(sc.Workload, sc.N, qps, sc.Seed, sched); err != nil {
		return nil, err
	}
	if cfg.Platform, err = serving.ParsePlatform(sc.Platform); err != nil {
		return nil, err
	}
	if sc.Replicas == 1 && sc.Faults == "" && sc.Retry == "" {
		b.sys = core.New(m, b.kind, cfg)
		return b, nil
	}
	b.copts = serving.ClusterOptions{
		Options:   serving.Options{Platform: cfg.Platform, SLOms: m.SLO(), Metrics: b.mode},
		Replicas:  sc.Replicas,
		FaultSeed: sc.Seed,
	}
	if b.copts.Dispatch, err = serving.ParseDispatch(sc.Dispatch); err != nil {
		return nil, err
	}
	if b.copts.Speeds, err = serving.ParseSpeeds(sc.Hetero); err != nil {
		return nil, err
	}
	if sc.Faults != "" {
		if b.copts.Faults, err = faults.Parse(sc.Faults); err != nil {
			return nil, err
		}
	}
	if sc.Retry != "" {
		if b.copts.Retry, err = faults.ParseRetry(sc.Retry); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.Replicas; i++ {
		mm, _ := model.ByName(sc.Model)
		h := serving.NewApparate(mm, exitsim.ProfileFor(mm, b.kind), sc.RampBudget,
			controller.Config{AccConstraint: sc.AccLoss})
		if sc.ExitRule != "" {
			rule, err := exitrule.ByName(sc.ExitRule)
			if err != nil {
				return nil, err
			}
			h.Cfg.Rule = rule
		}
		b.handlers = append(b.handlers, h)
	}
	return b, nil
}

// spans accumulates one traced run's timings and counts. Times are
// spans around calls into a layer's public functions; a layer's self
// time is its span minus the timed calls it makes into other layers.
type spans struct {
	build, run, summary, fill time.Duration

	source      time.Duration
	batch       time.Duration
	batchCalls  int
	plain       time.Duration
	tune        time.Duration
	adjust      time.Duration
	tuneCalls   int
	adjustCalls int
	// effective counts tune rounds that changed a threshold.
	effective int
	serveNS   *metrics.Sketch

	policy      time.Duration
	decideCalls int
	decideNS    *metrics.Sketch

	// queueWait records delivered Apparate requests' latency minus
	// serving time; lat keeps their latencies for the Recorder.Add pass.
	queueWait *metrics.Dist
	lat       []float64
}

func newSpans() *spans {
	return &spans{serveNS: metrics.NewSketch(), decideNS: metrics.NewSketch(), queueWait: metrics.NewDist(4096)}
}

// timedSource times a serving run's pulls from its request stream.
type timedSource struct {
	src serving.RequestSource
	s   *spans
}

func (ts *timedSource) Next() (workload.Request, bool) {
	t0 := time.Now()
	r, ok := ts.src.Next()
	ts.s.source += time.Since(t0)
	return r, ok
}

// timedHandler times an Apparate handler. A Serve call is a tune or an
// adjust round when it moves the controller's round counters, and a
// plain call (ramp evaluation plus the controller's record step)
// otherwise.
type timedHandler struct {
	h *serving.ApparateHandler
	s *spans
	// last is the thresholds after the previous round, to tell which
	// tune rounds changed one.
	last []float64
}

func newTimedHandler(h *serving.ApparateHandler, s *spans) *timedHandler {
	return &timedHandler{h: h, s: s, last: h.Cfg.Thresholds()}
}

func (th *timedHandler) BatchLatency(b int) float64 {
	t0 := time.Now()
	v := th.h.BatchLatency(b)
	th.s.batch += time.Since(t0)
	th.s.batchCalls++
	return v
}

func (th *timedHandler) Serve(smp exitsim.Sample, b int) ramp.Outcome {
	ctl := th.h.Ctl
	tunes, adjusts := ctl.TuneRounds, ctl.AdjustRounds
	t0 := time.Now()
	out := th.h.Serve(smp, b)
	d := time.Since(t0)
	th.s.serveNS.Add(float64(d))
	switch {
	case ctl.AdjustRounds != adjusts:
		th.s.adjust += d
		th.s.adjustCalls++
		th.last = th.h.Cfg.Thresholds()
	case ctl.TuneRounds != tunes:
		th.s.tune += d
		th.s.tuneCalls++
		ts := th.h.Cfg.Thresholds()
		if !slices.Equal(ts, th.last) {
			th.s.effective++
		}
		th.last = ts
	default:
		th.s.plain += d
	}
	return out
}

// timedPolicy times a generative policy's per-token decisions and its
// flush feedback.
type timedPolicy struct {
	p genserve.Policy
	s *spans
}

func (tp *timedPolicy) Decide(smp exitsim.Sample) (bool, float64, float64, bool) {
	t0 := time.Now()
	exit, depth, overhead, match := tp.p.Decide(smp)
	d := time.Since(t0)
	tp.s.policy += d
	tp.s.decideCalls++
	tp.s.decideNS.Add(float64(d))
	return exit, depth, overhead, match
}

func (tp *timedPolicy) ObserveFlush() {
	t0 := time.Now()
	tp.p.ObserveFlush()
	tp.s.policy += time.Since(t0)
}

// resolution checks that every request of a run resolves exactly once.
type resolution struct {
	seen  []bool
	count int
	bad   int
}

func newResolution(n int) *resolution { return &resolution{seen: make([]bool, n)} }

func (r *resolution) note(id int) {
	if id < 0 || id >= len(r.seen) || r.seen[id] {
		r.bad++
		return
	}
	r.seen[id] = true
	r.count++
}

func (r *resolution) check(t *tally, what string) {
	if r.bad > 0 || r.count != len(r.seen) {
		t.void("%s: %d of %d requests resolved, %d duplicate or unknown", what, r.count, len(r.seen), r.bad)
	}
}

// rebuilt is what a traced rebuild reports beyond the Result: the
// Apparate run's statistics.
type rebuilt struct {
	apparate *serving.Stats
	faults   *serving.FaultStats
	gen      *genserve.Stats
}

// runClass rebuilds a classification scenario with timing wrappers and
// returns the same Result core.RunScenario computes.
func runClass(sc core.Scenario, s *spans, t *tally) (*core.Result, *rebuilt, error) {
	t0 := time.Now()
	b, err := build(sc)
	if err != nil {
		return nil, nil, err
	}
	res := &core.Result{Scenario: sc, Requests: b.stream.Len()}
	vres, ares := newResolution(sc.N), newResolution(sc.N)
	vobs := func(r serving.Result) { vres.note(r.ID) }
	aobs := func(r serving.Result) {
		ares.note(r.ID)
		if !r.Dropped {
			s.queueWait.Add(r.LatencyMS - r.ServeMS)
			s.lat = append(s.lat, r.LatencyMS)
		}
	}
	s.build += time.Since(t0)

	var v, a *serving.Stats
	cr := &rebuilt{}
	var timed []*timedHandler
	if b.sys != nil {
		res.VanillaShardMode, res.ApparateShardMode = "serial", "serial"
		res.SLOms = b.sys.Opts.SLOms
		vo, ao := b.sys.Opts, b.sys.Opts
		vo.Observer, ao.Observer = vobs, aobs
		th := newTimedHandler(b.sys.Handler, s)
		timed = append(timed, th)
		t1 := time.Now()
		v = serving.Run(&timedSource{b.stream.Iter(), s}, &serving.VanillaHandler{Model: b.sys.Model}, vo)
		a = serving.Run(&timedSource{b.stream.Iter(), s}, th, ao)
		s.run += time.Since(t1)
	} else {
		vo, ao := b.copts, b.copts
		vo.Observer, ao.Observer = vobs, aobs
		for _, h := range b.handlers {
			timed = append(timed, newTimedHandler(h, s))
		}
		t1 := time.Now()
		vc := serving.RunCluster(b.stream, func(int) serving.Handler {
			mm, _ := model.ByName(sc.Model)
			return &serving.VanillaHandler{Model: mm}
		}, vo)
		ac := serving.RunCluster(b.stream, func(i int) serving.Handler { return timed[i] }, ao)
		s.run += time.Since(t1)
		res.SLOms = b.copts.SLOms
		res.VanillaShardMode, res.ApparateShardMode = vc.ShardMode, ac.ShardMode
		v, a = vc.Merged, ac.Merged
		cr.faults = ac.Faults
	}
	cr.apparate = a
	vres.check(t, "vanilla run")
	ares.check(t, "apparate run")
	for _, st := range []*serving.Stats{v, a} {
		if st.Delivered+st.Drops != st.Total || st.Total != sc.N {
			t.void("delivered %d + dropped %d != total %d (want %d)", st.Delivered, st.Drops, st.Total, sc.N)
		}
	}

	t2 := time.Now()
	res.Vanilla = summarize(v.Latencies())
	res.Apparate = summarize(a.Latencies())
	t3 := time.Now()
	s.summary += t3.Sub(t2)
	res.Vanilla.Accuracy, res.Apparate.Accuracy = v.Accuracy, a.Accuracy
	res.Vanilla.Throughput, res.Apparate.Throughput = v.ThroughputQPS, a.ThroughputQPS
	res.Vanilla.DropRate, res.Apparate.DropRate = v.DropRate, a.DropRate
	res.Vanilla.SLOMissRate, res.Apparate.SLOMissRate = v.SLOMissRate, a.SLOMissRate
	res.Vanilla.Goodput, res.Apparate.Goodput = v.GoodputQPS, a.GoodputQPS
	fillWins(res)
	if f := cr.faults; f != nil {
		res.Crashes, res.Lost, res.Retries, res.Hedges = f.Crashes, f.Lost, f.Retried, f.Hedged
		res.DowntimeMS, res.UnavailMS = f.Downtime(), f.UnavailMS
	}
	for _, th := range timed {
		res.TuneRounds += th.h.Ctl.TuneRounds
		res.AdjustRounds += th.h.Ctl.AdjustRounds
		res.ActiveRamps += len(th.h.Cfg.Active)
	}
	s.fill += time.Since(t3)
	return res, cr, nil
}

// runGen rebuilds a generative scenario with a timing wrapper around the
// Apparate policy and returns the same Result core.RunScenario computes.
// tokens is the number of tokens the scenario's stream asks for.
func runGen(sc core.Scenario, tokens int, s *spans, t *tally) (*core.Result, *rebuilt, error) {
	t0 := time.Now()
	b, err := build(sc)
	if err != nil {
		return nil, nil, err
	}
	res := &core.Result{Scenario: sc, Generative: true, Requests: b.gstream.Len()}
	vdone, adone := newResolution(sc.N), newResolution(sc.N)
	cur := vdone
	b.gen.Engine.OnSeq = func(r genserve.SeqResult) {
		cur.note(r.Request.ID)
		if cur == adone {
			for _, tk := range r.Tokens {
				s.lat = append(s.lat, tk.TPTms)
			}
		}
	}
	pol := &timedPolicy{p: b.gen.Policy, s: s}
	s.build += time.Since(t0)

	t1 := time.Now()
	v := b.gen.Engine.Run(b.gstream, genserve.VanillaGen{})
	cur = adone
	a := b.gen.Engine.Run(b.gstream, pol)
	s.run += time.Since(t1)
	vdone.check(t, "vanilla run")
	adone.check(t, "apparate run")
	if v.TotalTokens != tokens || a.TotalTokens != tokens {
		t.void("tokens not conserved: vanilla %d, apparate %d, stream %d", v.TotalTokens, a.TotalTokens, tokens)
	}

	t2 := time.Now()
	if v.TotalTokens > 0 {
		res.Vanilla = summarize(v.TPT())
	}
	if a.TotalTokens > 0 {
		res.Apparate = summarize(a.TPT())
	}
	t3 := time.Now()
	s.summary += t3.Sub(t2)
	res.Vanilla.Accuracy, res.Apparate.Accuracy = v.MeanScore, a.MeanScore
	res.Vanilla.Throughput, res.Apparate.Throughput = v.TokensPerSec, a.TokensPerSec
	res.KVUtil, res.PrefixHits, res.Preemptions, res.QueueMS = a.KVUtil, a.PrefixHits, a.Preemptions, a.QueueMS
	fillWins(res)
	res.TuneRounds = b.gen.Policy.TuneRounds
	res.AdjustRounds = b.gen.Policy.MoveRounds
	res.ActiveRamps = 1
	s.fill += time.Since(t3)
	return res, &rebuilt{gen: a}, nil
}

func summarize(r metrics.Recorder) core.RunSummary {
	return core.RunSummary{
		P25ms:  r.Percentile(25),
		P50ms:  r.Percentile(50),
		P95ms:  r.Percentile(95),
		P99ms:  r.Percentile(99),
		MeanMS: r.Mean(),
	}
}

func fillWins(res *core.Result) {
	res.P50Win = metrics.WinPercent(res.Vanilla.P50ms, res.Apparate.P50ms)
	res.P95Win = metrics.WinPercent(res.Vanilla.P95ms, res.Apparate.P95ms)
	res.P99Win = metrics.WinPercent(res.Vanilla.P99ms, res.Apparate.P99ms)
	res.AccDelta = res.Vanilla.Accuracy - res.Apparate.Accuracy
}

// overcommit is what a KV scenario's runtime did past its pool's
// bounds, observed in one traced Apparate generative run.
type overcommit struct {
	// seqs counts the sequences that pushed the blocks held across the
	// pool past its size: the runtime admits a sequence larger than the
	// pool once the pool is idle and lets it grow past the pool (the
	// KV-overcommit defect).
	seqs int
	// rows counts the pool timeline's rows with free blocks below 0 or
	// utilization above 1.
	rows  int
	stats *genserve.Stats
}

// kvOvercommit runs a KV scenario's Apparate generative run once more,
// outside any timed span, with a trace and a pool timeline attached. It
// follows each sequence's blocks through the trace: kv_admit and preempt
// carry the blocks held, and a committed decode stretch means the
// sequence holds blocks for its prefilled prompt (none on a prefix hit)
// plus every token it has decoded. Blocks acquired for a stretch count
// from its commit, so the pool total followed here never exceeds the
// runtime's.
func kvOvercommit(sc core.Scenario) (*overcommit, error) {
	b, err := build(sc)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTracer()
	tl := obs.NewTimeline(sc.ObsTickMS, 0)
	b.gen.Engine.Trace, b.gen.Engine.Timeline = tr, tl
	oc := &overcommit{stats: b.gen.Engine.Run(b.gstream, b.gen.Policy)}
	bt := sc.BlockTokens
	if bt == 0 {
		bt = genserve.DefaultBlockTokens
	}
	type seqBlocks struct {
		prompt, decoded, held int
		over                  bool
	}
	seqs := make([]seqBlocks, sc.N)
	used := 0
	hold := func(s *seqBlocks, blocks int) {
		if blocks > s.held {
			used += blocks - s.held
			s.held = blocks
		}
		if used > sc.KVBlocks && !s.over {
			s.over = true
			oc.seqs++
		}
	}
	for _, e := range tr.Events {
		if e.Req < 0 || e.Req >= len(seqs) {
			return nil, fmt.Errorf("trace event %s for unknown sequence %d", e.Kind, e.Req)
		}
		s := &seqs[e.Req]
		switch e.Kind {
		case obs.KindSeqArrive:
			s.prompt = e.Val
		case obs.KindPrefixHit:
			s.prompt = 0
		case obs.KindKVAdmit:
			hold(s, e.Val)
		case obs.KindDecodeFlush:
			s.decoded += e.Val
			hold(s, (s.prompt+s.decoded+bt-1)/bt)
		case obs.KindPreempt:
			hold(s, e.Val)
			used -= s.held
			s.held = 0
		case obs.KindSeqComplete:
			used -= s.held
			s.held = 0
		}
	}
	if used != 0 {
		return nil, fmt.Errorf("trace leaves %d KV blocks held after every sequence completed", used)
	}
	for _, r := range tl.Rows {
		if r.Gauges.KVFree < 0 || r.Gauges.KVUtil > 1 {
			oc.rows++
		}
	}
	return oc, nil
}

// miss fails the sequences that overcommitted the pool.
func (oc *overcommit) miss(t *tally) {
	if oc != nil && oc.seqs > 0 {
		t.miss(oc.seqs, "KV pool overcommitted by a sequence")
	}
}

// check voids the observation unless the traced run matches res, the
// scenario's RunScenario result, in every KV statistic it reports.
func (oc *overcommit) check(t *tally, sc core.Scenario, res *core.Result) {
	if oc == nil {
		return
	}
	st := oc.stats
	if st.KVUtil != res.KVUtil || st.PrefixHits != res.PrefixHits || st.Preemptions != res.Preemptions || st.QueueMS != res.QueueMS {
		t.void("traced KV run differs from RunScenario: util %g/%g, prefix hits %d/%d, preemptions %d/%d, queue %g/%g ms",
			st.KVUtil, res.KVUtil, st.PrefixHits, res.PrefixHits, st.Preemptions, res.Preemptions, st.QueueMS, res.QueueMS)
	}
}

// traced is the per-layer run. Scenario workloads alternate an untraced
// core.RunScenario call with a traced rebuild of the same scenario until
// cfg.seconds have passed; the rebuild must reproduce RunScenario's
// Result field for field, or its numbers are void.
func traced(w workloadDef, cfg config, t *tally, out io.Writer) (map[string]float64, error) {
	if w.grid != nil {
		return tracedSweep(w, cfg, t, out)
	}
	sc, err := setupScenario(w, cfg)
	if err != nil {
		return nil, err
	}
	tokens, err := streamTokens(sc)
	if err != nil {
		return nil, err
	}
	var kv *overcommit
	if sc.KVBlocks > 0 {
		if kv, err = kvOvercommit(sc); err != nil {
			return nil, err
		}
	}

	t.attempted = int64(sc.N)
	var plainWalls []float64
	var iters []map[string]float64
	var last *spans
	var lastRef *core.Result
	var lastRun *rebuilt
	var digest string
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var ref *core.Result
		var err error
		plainWalls = append(plainWalls, timeUnit(func() { ref, err = core.RunScenario(sc) }).wall)
		if !checkScenario(t, sc, ref, err, &digest) {
			continue
		}

		s := newSpans()
		var res *core.Result
		var run *rebuilt
		runtime.GC()
		t0 := time.Now()
		if sc.Generative() {
			res, run, err = runGen(sc, tokens, s, t)
		} else {
			res, run, err = runClass(sc, s, t)
		}
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(*res, *ref) {
			t.void("traced rebuild's Result differs from RunScenario's:\n  traced %+v\n  plain  %+v", *res, *ref)
			continue
		}
		iters = append(iters, s.times(wall))
		last, lastRef, lastRun = s, ref, run
	}
	if lastRef != nil {
		checkBounds(t, sc, lastRef, kv)
	}
	fmt.Fprintf(out, "digest seed=%d %s\n", sc.Seed, digest)
	fmt.Fprintf(out, "traced iterations %d\n", len(iters))
	m := zeroLayers()
	m["core.fail_frac"] = 1 - okFrac(t)
	if last == nil {
		// Every iteration failed a check that voids it; the run reports
		// incorrect with nothing measured.
		return m, nil
	}
	for k := range iters[0] {
		var xs []float64
		for _, it := range iters {
			xs = append(xs, it[k])
		}
		m[k] = median(xs)
	}
	m["bench.wall_s"] = median(plainWalls)
	m["bench.trace_overhead_frac"] = m["bench.traced_wall_s"]/m["bench.wall_s"] - 1
	delete(m, "bench.traced_wall_s")
	m["ramp.active_ramps"] = float64(lastRef.ActiveRamps)
	m["core.p99_win_pct"] = lastRef.P99Win
	m["core.drop_frac"] = lastRef.Apparate.DropRate

	// Separate passes outside the traced wall: stream iteration alone,
	// and Recorder.Add alone in the workload's mode over the run's
	// latencies (TPTs for generative).
	b, err := build(sc)
	if err != nil {
		return nil, err
	}
	rec := metrics.NewRecorder(b.mode, 4096)
	m["metrics.add_ns"] = perCall(len(last.lat), func() {
		for _, v := range last.lat {
			rec.Add(v)
		}
	})
	if g := lastRun.gen; g != nil {
		m["workload.next_ns_per_req"] = perCall(sc.N, func() {
			for it := b.gstream.Iter(); ; {
				if _, ok := it.Next(); !ok {
					return
				}
			}
		})
		m["genserve.decide_calls"] = float64(last.decideCalls)
		m["genserve.kv_util"] = g.KVUtil
		m["genserve.preempts_per_seq"] = float64(g.Preemptions) / float64(sc.N)
		m["genserve.prefix_hit_frac"] = float64(g.PrefixHits) / float64(sc.N)
		m["genserve.queue_ms"] = g.QueueMS
		if kv != nil {
			m["genserve.oversize_seqs"] = float64(kv.seqs)
			m["genserve.kv_bound_violations"] = float64(kv.rows)
		}
		return m, nil
	}
	m["workload.next_ns_per_req"] = perCall(sc.N, func() {
		for it := b.stream.Iter(); ; {
			if _, ok := it.Next(); !ok {
				return
			}
		}
	})
	a := lastRun.apparate
	m["serving.avg_batch"] = a.AvgBatch
	m["serving.queue_wait_ms_p50"] = last.queueWait.Percentile(50)
	m["serving.queue_wait_ms_p99"] = last.queueWait.Percentile(99)
	if f := lastRun.faults; f != nil {
		m["serving.retries_per_req"] = float64(f.Retried) / float64(sc.N)
		m["serving.crashes"] = float64(f.Crashes)
	}
	m["serving.batch_latency_calls"] = float64(last.batchCalls)
	m["handler.serve_calls"] = float64(last.serveNS.Len())
	m["ramp.exit_frac"] = float64(a.Exits) / float64(a.Delivered)
	m["controller.tune_rounds"] = float64(last.tuneCalls)
	m["controller.adjust_rounds"] = float64(last.adjustCalls)
	if last.tuneCalls > 0 {
		m["controller.tune_effective_frac"] = float64(last.effective) / float64(last.tuneCalls)
	}
	return m, nil
}

// times turns one traced iteration's spans into per-layer times, with
// bench.traced_wall_s carrying the traced wall for the overhead ratio.
func (s *spans) times(wall time.Duration) map[string]float64 {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	handler := s.plain + s.tune + s.adjust
	m := map[string]float64{
		"bench.traced_wall_s": sec(wall),
		"core.self_s":         sec(s.build + s.fill),
		"metrics.summary_s":   sec(s.summary),
	}
	if s.decideNS.Len() > 0 {
		m["genserve.run_self_s"] = sec(s.run - s.policy)
		m["genserve.policy_s"] = sec(s.policy)
		m["genserve.decide_ns_p50"] = s.decideNS.Percentile(50)
		m["genserve.decide_ns_p99"] = s.decideNS.Percentile(99)
		return m
	}
	m["serving.self_s"] = sec(s.run - s.source - s.batch - handler)
	m["serving.batch_latency_s"] = sec(s.batch)
	m["handler.plain_s"] = sec(s.plain)
	m["controller.tune_s"] = sec(s.tune)
	m["controller.adjust_s"] = sec(s.adjust)
	m["controller.share"] = sec(s.tune+s.adjust) / sec(wall)
	if s.tuneCalls > 0 {
		m["controller.tune_ms_per_round"] = sec(s.tune) * 1000 / float64(s.tuneCalls)
	}
	if s.adjustCalls > 0 {
		m["controller.adjust_ms_per_round"] = sec(s.adjust) * 1000 / float64(s.adjustCalls)
	}
	if s.serveNS.Len() > 0 {
		m["handler.serve_ns_p50"] = s.serveNS.Percentile(50)
		m["handler.serve_ns_p99"] = s.serveNS.Percentile(99)
	}
	return m
}

// zeroLayers returns every per-layer metric at 0, so metrics of layers a
// workload never calls still print.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// perCall times f, which makes n calls, and returns nanoseconds per
// call.
func perCall(n int, f func()) float64 {
	if n == 0 {
		return 0
	}
	runtime.GC()
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
