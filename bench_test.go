// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure), plus micro-benchmarks of the protocol's hot paths and
// ablations of its design choices. Custom metrics carry the scientific
// quantities: delay_rtd, T_rtd, ctlmsgs/subrun, histpeak, and so on.
//
// The figure and hot-path benchmark bodies live in internal/benchsuite so
// cmd/urcgc-bench can run the identical code to record BENCH_BASELINE.json;
// this file wraps them for `go test -bench` and keeps the ablation
// sub-benchmarks, which are not part of the recorded baseline.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package urcgc

import (
	"testing"

	"urcgc/internal/benchsuite"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// ---- Figure 4: mean end-to-end delay vs offered load ----

func BenchmarkFig4Reliable(b *testing.B) { benchsuite.Fig4Reliable(b) }
func BenchmarkFig4Crashes(b *testing.B)  { benchsuite.Fig4Crashes(b) }
func BenchmarkFig4Omit500(b *testing.B)  { benchsuite.Fig4Omit500(b) }
func BenchmarkFig4Omit100(b *testing.B)  { benchsuite.Fig4Omit100(b) }

// ---- Figure 5: agreement time vs consecutive coordinator crashes ----

func BenchmarkFig5(b *testing.B) { benchsuite.Fig5(b) }

// ---- Table 1: control messages and sizes ----

func BenchmarkTable1(b *testing.B) { benchsuite.Table1(b) }

// ---- Figure 6: history length over time ----

func BenchmarkFig6a(b *testing.B) { benchsuite.Fig6a(b) }
func BenchmarkFig6b(b *testing.B) { benchsuite.Fig6b(b) }

// ---- Hot-path micro-benchmarks ----

func BenchmarkDeliveryReadyTest(b *testing.B)         { benchsuite.DeliveryReadyTest(b) }
func BenchmarkHistoryStoreAndClean(b *testing.B)      { benchsuite.HistoryStoreAndClean(b) }
func BenchmarkWaitlistCascade(b *testing.B)           { benchsuite.WaitlistCascade(b) }
func BenchmarkWireMarshalDecision(b *testing.B)       { benchsuite.WireMarshalDecision(b) }
func BenchmarkWireMarshalAppendDecision(b *testing.B) { benchsuite.WireMarshalAppendDecision(b) }
func BenchmarkWireUnmarshalData(b *testing.B)         { benchsuite.WireUnmarshalData(b) }
func BenchmarkWireDecodeStreamData(b *testing.B)      { benchsuite.WireDecodeStreamData(b) }
func BenchmarkWireDecodeStreamBatch32(b *testing.B)   { benchsuite.WireDecodeStreamBatch32(b) }
func BenchmarkIdleSubrunN3(b *testing.B)              { benchsuite.IdleSubrunN3(b) }
func BenchmarkIdleSubrunN9(b *testing.B)              { benchsuite.IdleSubrunN9(b) }
func BenchmarkVectorClockDeliverable(b *testing.B)    { benchsuite.VectorClockDeliverable(b) }
func BenchmarkCBCASTRun(b *testing.B)                 { benchsuite.CBCASTRun(b) }
func BenchmarkLiveConfirmLatency(b *testing.B)        { benchsuite.LiveConfirmLatency(b) }
func BenchmarkStageLatencyBreakdown(b *testing.B)     { benchsuite.StageLatencyBreakdown(b) }
func BenchmarkLifecycleOverhead(b *testing.B)         { benchsuite.LifecycleOverhead(b) }
func BenchmarkSamplerOverhead(b *testing.B)           { benchsuite.SamplerOverhead(b) }

// ---- Ablations ----

// BenchmarkAblationTransportH quantifies the Section 5 trade: moving loss
// repair into the transport (h=4) versus recovering from history (h=1).
func BenchmarkAblationTransportH(b *testing.B) {
	for _, h := range []int{1, 4} {
		h := h
		name := map[int]string{1: "h1-datagram", 4: "h4-transport"}[h]
		b.Run(name, func(b *testing.B) {
			var recoveries, retries float64
			for i := 0; i < b.N; i++ {
				c, err := core.NewCluster(core.ClusterConfig{
					Config:     core.Config{N: 5, K: 3, R: 8, SelfExclusion: true},
					Seed:       int64(i) + 11,
					TransportH: h,
					Injector: faultrt.During{
						From: 0, To: (12 * sim.TicksPerRTD).Duration(),
						Inner: faultrt.NewDropRate(0.04, faultrt.AtSend, int64(i)+77),
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				_, err = c.Run(core.RunOptions{
					MaxRounds: 600, MinRounds: 60,
					OnRound: func(round int) {
						if round%2 != 0 || round/2 >= 15 {
							return
						}
						for p := 0; p < c.N(); p++ {
							if c.Active(mid.ProcID(p)) {
								_, _ = c.Submit(mid.ProcID(p), make([]byte, 64), nil)
							}
						}
					},
					StopWhenQuiescent: true, DrainSubruns: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				recoveries, retries = 0, 0
				for p := 0; p < c.N(); p++ {
					recoveries += float64(c.Proc(mid.ProcID(p)).Stats.Recoveries)
					if e := c.TransportEntity(mid.ProcID(p)); e != nil {
						retries += float64(e.Stats.Retries)
					}
				}
			}
			b.ReportMetric(recoveries, "history_recoveries")
			b.ReportMetric(retries, "transport_retries")
		})
	}
}

// BenchmarkAblationFlowControl contrasts history peaks with and without the
// 8n flow-control threshold under stalled stability.
func BenchmarkAblationFlowControl(b *testing.B) {
	// The crash stalls cleaning for the K-subrun detection window, during
	// which histories grow to about K*n = 50; the threshold of 3n = 30 cuts
	// into that, demonstrating the bound (the paper's 8n plays the same
	// role at its larger scale, cf. Figure 6b).
	for _, threshold := range []int{0, 30} {
		threshold := threshold
		name := map[int]string{0: "off", 30: "3n"}[threshold]
		b.Run(name, func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				c, err := core.NewCluster(core.ClusterConfig{
					Config: core.Config{
						N: 10, K: 5, R: 12, HistoryThreshold: threshold, SelfExclusion: true,
					},
					Seed:     int64(i) + 3,
					Injector: faultrt.CrashAt{Proc: 9, At: (2 * sim.TicksPerRTD).Duration()},
				})
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < 10; p++ {
					for m := 0; m < 30; m++ {
						_, _ = c.Submit(mid.ProcID(p), make([]byte, 64), nil)
					}
				}
				_, err = c.Run(core.RunOptions{
					MaxRounds: 800, MinRounds: 60,
					StopWhenQuiescent: true, DrainSubruns: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				peak = c.HistMax.Max()
			}
			b.ReportMetric(peak, "histpeak")
		})
	}
}

// BenchmarkAblationCausalLabelling contrasts the intermediate
// interpretation (explicit single-dependency labels) against the
// conservative temporal labelling (depend on everything seen, as CBCAST
// implies): the temporal form drags every sequence behind every other.
func BenchmarkAblationCausalLabelling(b *testing.B) {
	for _, temporal := range []bool{false, true} {
		temporal := temporal
		name := map[bool]string{false: "intermediate", true: "temporal"}[temporal]
		b.Run(name, func(b *testing.B) {
			var d float64
			for i := 0; i < b.N; i++ {
				c, err := core.NewCluster(core.ClusterConfig{
					Config: core.Config{N: 8, K: 3, R: 8, SelfExclusion: true},
					Seed:   int64(i) + 5,
					Injector: faultrt.During{
						From: 0, To: (20 * sim.TicksPerRTD).Duration(),
						Inner: &faultrt.DropEvery{N: 150, Side: faultrt.AtSend},
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				_, err = c.Run(core.RunOptions{
					MaxRounds: 500, MinRounds: 2 * 40,
					OnRound: func(round int) {
						if round%2 != 0 || round/2 >= 40 {
							return
						}
						for p := 0; p < c.N(); p++ {
							pp := mid.ProcID(p)
							if !c.Active(pp) {
								continue
							}
							if temporal {
								_, _ = c.SubmitCausal(pp, make([]byte, 64))
							} else {
								_, _ = c.Submit(pp, make([]byte, 64), nil)
							}
						}
					},
					StopWhenQuiescent: true, DrainSubruns: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				d = c.Delay.MeanRTD()
			}
			b.ReportMetric(d, "delay_rtd")
		})
	}
}
