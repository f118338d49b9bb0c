package benchsuite

import (
	"math/rand"
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/rt"
	"urcgc/internal/trace"
)

// StageLatencyBreakdown runs a simulated load with the event recorder
// attached and reports the per-stage latency table computed from the log:
// where between emission and uniform coverage a message spends its rounds.
// Submissions land on odd rounds so the outbox stage is visible (messages
// wait for the next subrun boundary), and a 1-in-50 send omission makes
// the waiting-list stage real: a dropped data message forces its sender's
// next message to park until recovery fills the gap. The metrics land in
// BENCH_BASELINE.json so EXPERIMENTS.md can carry the breakdown and
// future PRs can see stage-level regressions, not just end-to-end ones.
func StageLatencyBreakdown(b *testing.B) {
	b.ReportAllocs()
	var bd lifecycle.Breakdown
	for i := 0; i < b.N; i++ {
		c, err := core.NewCluster(core.ClusterConfig{
			Config:   core.Config{N: 10, K: 3, R: 8, SelfExclusion: true},
			Seed:     int64(i) + 1,
			Injector: &faultrt.DropEvery{N: 50, Side: faultrt.AtSend},
		})
		if err != nil {
			b.Fatal(err)
		}
		rec := trace.NewRecorder(c.N())
		c.Trace = rec
		rng := rand.New(rand.NewSource(int64(i) + 7))
		_, err = c.Run(core.RunOptions{
			MaxRounds: 2*60 + 200, MinRounds: 2 * 60,
			OnRound: func(round int) {
				if round%2 != 1 || round/2 >= 60 {
					return
				}
				for p := 0; p < c.N(); p++ {
					pp := mid.ProcID(p)
					if c.Active(pp) && rng.Float64() < 1.0 {
						_, _ = c.Submit(pp, make([]byte, 64), nil)
					}
				}
			},
			StopWhenQuiescent: true, DrainSubruns: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		bd = lifecycle.FromRecorder(rec)
	}
	b.ReportMetric(bd.MeanEmitToBroadcast, "emit_to_bcast_rtd")
	b.ReportMetric(bd.MeanEmitToFirstProcess, "emit_to_first_rtd")
	b.ReportMetric(bd.MeanEmitToUniform, "emit_to_uniform_rtd")
	b.ReportMetric(bd.P99EmitToUniform, "emit_to_uniform_p99_rtd")
	b.ReportMetric(bd.MeanWait, "wait_rtd")
	b.ReportMetric(bd.P99Wait, "wait_p99_rtd")
}

// LifecycleOverhead is LiveConfirmLatency with lifecycle tracing enabled —
// the same mesh, codec and load. Comparing its allocs/op against
// LiveConfirmLatency bounds what span recording costs when switched on;
// the disabled path is separately proven 0-extra-allocs by the rt tests.
func LifecycleOverhead(b *testing.B) { benchLiveConfirm(b, rt.Config{Lifecycle: &lifecycle.Options{}}) }
