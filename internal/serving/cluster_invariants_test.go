package serving

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/controller"
	"repro/internal/exitsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestClusterRuntimeInvariants pins the cluster runtime's accounting
// across the configuration space it serves: both platforms, every
// dispatch policy, homogeneous and heterogeneous speeds, vanilla,
// frozen-ramp and adaptive Apparate handlers, one, even and uneven
// replica counts, and both metrics modes. For every cell it checks that
//
//   - each request is resolved exactly once, by a replica in range, and
//     round-robin sends request i to replica i mod R;
//   - every per-replica Stats matches the results that replica emitted,
//     and the Merged stats are the sum of the replicas';
//   - each delivered result is self-consistent (batch size within the
//     cap, latency covers service time, SLOMiss agrees with the SLO);
//   - the latency recorders hold exactly the delivered samples, with
//     the observed minimum and maximum;
//   - attaching observers changes nothing, and a second run reproduces
//     the first byte for byte (merged and per replica).
func TestClusterRuntimeInvariants(t *testing.T) {
	type handlerCase struct {
		name string
		mk   func(m *model.Model, kind exitsim.Kind) func(int) Handler
	}
	handlers := []handlerCase{
		{"vanilla", func(m *model.Model, _ exitsim.Kind) func(int) Handler {
			return func(int) Handler { return &VanillaHandler{Model: m} }
		}},
		{"apparate-frozen", func(m *model.Model, kind exitsim.Kind) func(int) Handler {
			prof := exitsim.ProfileFor(m, kind)
			return func(int) Handler {
				return NewApparate(m, prof, 0.02, controller.Config{DisableRampAdjust: true})
			}
		}},
		{"apparate", func(m *model.Model, kind exitsim.Kind) func(int) Handler {
			prof := exitsim.ProfileFor(m, kind)
			return func(int) Handler {
				return NewApparate(m, prof, 0.02, controller.Config{})
			}
		}},
	}
	type wlCase struct {
		name   string
		m      *model.Model
		kind   exitsim.Kind
		stream *workload.Stream
	}
	workloads := []wlCase{
		{"video", model.ResNet50(), exitsim.KindVideo, workload.Video(1, 2000, 120, 91)},
		{"amazon", model.BERTBase(), exitsim.KindAmazon, workload.Amazon(2000, 80, 92)},
	}
	const maxBatch = 16
	for _, wl := range workloads {
		n := wl.stream.Len()
		for _, platform := range []Platform{Clockwork, TFServe} {
			for _, dispatch := range []Dispatch{RoundRobin, LeastLoaded, JoinShortestQueue} {
				for _, hetero := range []string{"", "1,0.5"} {
					for _, hc := range handlers {
						for _, replicas := range []int{1, 2, 5} {
							for _, mode := range []metrics.Mode{metrics.ModeExact, metrics.ModeSketch} {
								name := fmt.Sprintf("%s/%s/%s/hetero=%s/%s/r%d/%s",
									wl.name, platform, dispatch, hetero, hc.name, replicas, mode)
								t.Run(name, func(t *testing.T) {
									speeds, err := ParseSpeeds(hetero)
									if err != nil {
										t.Fatal(err)
									}
									opts := ClusterOptions{
										Options: Options{Platform: platform, SLOms: wl.m.SLO(),
											MaxBatch: maxBatch, Metrics: mode},
										Replicas: replicas,
										Dispatch: dispatch,
										Speeds:   speeds,
									}
									plain := RunCluster(wl.stream, hc.mk(wl.m, wl.kind), opts)

									seen := make([]int, n)
									served := make([]int, n)
									tally := make([]Stats, replicas)
									minLat, maxLat := math.Inf(1), math.Inf(-1)
									opts.Observer = func(r Result) {
										if r.ID < 0 || r.ID >= n {
											t.Fatalf("result for unknown request %d", r.ID)
										}
										seen[r.ID]++
									}
									opts.ReplicaObserver = func(replica int, r Result) {
										if replica < 0 || replica >= replicas {
											t.Fatalf("request %d served by replica %d of %d", r.ID, replica, replicas)
										}
										if dispatch == RoundRobin && replica != r.ID%replicas {
											t.Fatalf("round-robin sent request %d to replica %d", r.ID, replica)
										}
										served[r.ID]++
										tl := &tally[replica]
										tl.Total++
										if r.Dropped {
											tl.Drops++
											return
										}
										tl.Delivered++
										if r.SLOMiss {
											tl.SLOMisses++
										}
										if r.Correct {
											tl.Correct++
										}
										if r.ExitIndex >= 0 {
											tl.Exits++
										}
										if r.BatchSize < 1 || r.BatchSize > maxBatch {
											t.Fatalf("request %d served in a batch of %d", r.ID, r.BatchSize)
										}
										// Latency is now+ServeMS-ArrivalMS, so a request served
										// on arrival may round a few ulps below ServeMS.
										if r.ServeMS <= 0 || r.LatencyMS < r.ServeMS-1e-9 {
											t.Fatalf("request %d: latency %v, service %v", r.ID, r.LatencyMS, r.ServeMS)
										}
										if r.SLOMiss != (r.LatencyMS > wl.m.SLO()) {
											t.Fatalf("request %d: SLOMiss=%v at latency %v (SLO %v)",
												r.ID, r.SLOMiss, r.LatencyMS, wl.m.SLO())
										}
										minLat, maxLat = math.Min(minLat, r.LatencyMS), math.Max(maxLat, r.LatencyMS)
									}
									observed := RunCluster(wl.stream, hc.mk(wl.m, wl.kind), opts)

									for id := range seen {
										if seen[id] != 1 || served[id] != 1 {
											t.Fatalf("request %d resolved %d times (%d by a replica), want once",
												id, seen[id], served[id])
										}
									}
									if plain.ShardMode != "serial" || observed.ShardMode != "serial" {
										t.Fatalf("ShardMode %q/%q, want \"serial\"", plain.ShardMode, observed.ShardMode)
									}
									if len(observed.PerReplica) != replicas {
										t.Fatalf("%d per-replica stats, want %d", len(observed.PerReplica), replicas)
									}
									var sum Stats
									lens := 0
									for i, s := range observed.PerReplica {
										want := tally[i]
										if s.Total != want.Total || s.Delivered != want.Delivered || s.Drops != want.Drops ||
											s.SLOMisses != want.SLOMisses || s.Correct != want.Correct || s.Exits != want.Exits {
											t.Fatalf("replica %d stats %+v disagree with its results %+v", i, *s, want)
										}
										if s.Delivered+s.Drops != s.Total {
											t.Fatalf("replica %d: delivered %d + drops %d != total %d", i, s.Delivered, s.Drops, s.Total)
										}
										sum.Total += s.Total
										sum.Delivered += s.Delivered
										sum.Drops += s.Drops
										sum.SLOMisses += s.SLOMisses
										sum.Correct += s.Correct
										sum.Exits += s.Exits
										if s.Lat != nil {
											lens += s.Lat.Len()
										}
									}
									mg := observed.Merged
									if mg.Total != n || sum.Total != n {
										t.Fatalf("merged total %d, replica sum %d, want %d", mg.Total, sum.Total, n)
									}
									if mg.Delivered != sum.Delivered || mg.Drops != sum.Drops || mg.SLOMisses != sum.SLOMisses ||
										mg.Correct != sum.Correct || mg.Exits != sum.Exits {
										t.Fatalf("merged stats %+v are not the sum of the replicas' %+v", *mg, sum)
									}
									if mg.Delivered == 0 {
										t.Fatal("no request delivered")
									}
									if mg.Lat.Len() != mg.Delivered || lens != mg.Delivered {
										t.Fatalf("latency recorders hold %d merged / %d per-replica samples, want %d delivered",
											mg.Lat.Len(), lens, mg.Delivered)
									}
									if mg.Lat.Min() != minLat || mg.Lat.Max() != maxLat {
										t.Fatalf("merged latency range [%v, %v], observed [%v, %v]",
											mg.Lat.Min(), mg.Lat.Max(), minLat, maxLat)
									}

									if want, got := statsFingerprint(plain.Merged), statsFingerprint(mg); want != got {
										t.Fatalf("merged stats differ between runs:\n first:  %s\n second: %s", want, got)
									}
									for i := range plain.PerReplica {
										if want, got := statsFingerprint(plain.PerReplica[i]), statsFingerprint(observed.PerReplica[i]); want != got {
											t.Fatalf("replica %d stats differ between runs:\n first:  %s\n second: %s", i, want, got)
										}
									}
								})
							}
						}
					}
				}
			}
		}
	}
}

// statsFingerprint renders every observable quantity of a Stats —
// counts, rates, makespan, and the full latency recorder surface — in
// full float precision, so two runs compare byte-identically.
func statsFingerprint(s *Stats) string {
	fp := fmt.Sprintf("total=%d delivered=%d drops=%d misses=%d correct=%d exits=%d "+
		"avgbatch=%v droprate=%v missrate=%v tput=%v acc=%v first=%v last=%v lat_len=%d",
		s.Total, s.Delivered, s.Drops, s.SLOMisses, s.Correct, s.Exits,
		s.AvgBatch, s.DropRate, s.SLOMissRate, s.ThroughputQPS, s.Accuracy,
		s.FirstArrivalMS, s.LastDoneMS, s.Lat.Len())
	if s.Lat.Len() > 0 {
		fp += fmt.Sprintf(" mean=%v min=%v max=%v", s.Lat.Mean(), s.Lat.Min(), s.Lat.Max())
		for p := 1; p <= 100; p++ {
			fp += fmt.Sprintf(" p%d=%v", p, s.Lat.Percentile(float64(p)))
		}
	}
	return fp
}
