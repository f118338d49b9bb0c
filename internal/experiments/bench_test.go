package experiments

// Benchmarks regenerating the paper's evaluation (one per table and figure),
// the design-choice ablations, and the per-stage latency breakdown. Custom
// metrics carry the scientific quantities: delay_rtd, T_rtd, ctl/subrun,
// histpeak and so on. Every iteration runs the experiment's default seed, so
// a metric is a property of the code, not of how many iterations the runner
// chose; ns/op and allocs/op are what repeating it measures.
//
//	go test -bench . -run '^$' ./internal/experiments/

import (
	"fmt"
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/trace"
	"urcgc/internal/workload"
)

// ---- Figure 4: mean end-to-end delay vs offered load ----

// benchFig4 measures the top of the Figure 4 curve, one message per process
// per subrun, under the fault the condition names (nil: reliable).
func benchFig4(b *testing.B, inj func(Fig4Config) faultrt.Injector) {
	cfg := DefaultFig4()
	b.ReportAllocs()
	var d float64
	for i := 0; i < b.N; i++ {
		var fi faultrt.Injector
		if inj != nil {
			fi = inj(cfg)
		}
		var err error
		if d, err = fig4Run(cfg, 1.0, cfg.Seed, fi); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d, "delay_rtd")
}

func dropEvery(n int) func(Fig4Config) faultrt.Injector {
	return func(Fig4Config) faultrt.Injector { return &faultrt.DropEvery{N: n, Side: faultrt.AtSend} }
}

// BenchmarkFig4Reliable is the failure-free load/delay curve point.
func BenchmarkFig4Reliable(b *testing.B) { benchFig4(b, nil) }

// BenchmarkFig4Crashes injects the figure's four staggered crashes.
func BenchmarkFig4Crashes(b *testing.B) { benchFig4(b, fig4Crashes) }

// BenchmarkFig4Omit500 drops every 500th send.
func BenchmarkFig4Omit500(b *testing.B) { benchFig4(b, dropEvery(500)) }

// BenchmarkFig4Omit100 drops every 100th send.
func BenchmarkFig4Omit100(b *testing.B) { benchFig4(b, dropEvery(100)) }

// ---- Figure 5: agreement time vs consecutive coordinator crashes ----

// BenchmarkFig5 measures agreement time with 0 and 2 coordinator crashes,
// for urcgc and the CBCAST baseline.
func BenchmarkFig5(b *testing.B) {
	cfg := DefaultFig5()
	cfg.Fs = []int{0, 2}
	b.ReportAllocs()
	var res Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].URCGCMeasured, "urcgcT(f=0)_rtd")
	b.ReportMetric(res.Points[1].URCGCMeasured, "urcgcT(f=2)_rtd")
	b.ReportMetric(res.Points[0].CBCASTMeasured, "cbcastT(f=0)_rtd")
	b.ReportMetric(res.Points[1].CBCASTMeasured, "cbcastT(f=2)_rtd")
}

// ---- Table 1: control messages and sizes ----

// BenchmarkTable1 regenerates the control-traffic table at n=15.
func BenchmarkTable1(b *testing.B) {
	cfg := DefaultTable1()
	cfg.Ns = []int{15}
	b.ReportAllocs()
	var res Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		if row.Protocol == "urcgc" && row.Condition == "reliable" {
			b.ReportMetric(row.MsgsPerSubrun, "urcgc_ctl/subrun")
			b.ReportMetric(row.MeanSize, "urcgc_ctlB")
		}
		if row.Protocol == "cbcast" && row.Condition == "crash" {
			b.ReportMetric(row.MsgsPerSubrun, "cbcast_crash_ctl/subrun")
		}
	}
}

// ---- Figure 6: history length over time ----

func benchFig6(b *testing.B, run func(Fig6Config) (Fig6Result, error)) {
	cfg := DefaultFig6(40)
	cfg.Ks = []int{3}
	b.ReportAllocs()
	var res Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, curve := range res.Curves {
		if curve.Faulty {
			b.ReportMetric(curve.Peak, "faulty_histpeak")
			b.ReportMetric(curve.DoneRTD, "faulty_done_rtd")
		} else {
			b.ReportMetric(curve.Peak, "reliable_histpeak")
		}
	}
}

// BenchmarkFig6a plots history growth without flow control.
func BenchmarkFig6a(b *testing.B) { benchFig6(b, Fig6a) }

// BenchmarkFig6b plots history growth with the flow-control threshold.
func BenchmarkFig6b(b *testing.B) { benchFig6(b, Fig6b) }

// ---- Ablations, at DefaultAblation (what `urcgc-bench -exp ablation` prints) ----

// BenchmarkAblationTransportH quantifies the Section 5 trade: moving loss
// repair into the transport (h=4) versus recovering from history (h=1).
func BenchmarkAblationTransportH(b *testing.B) {
	cfg := DefaultAblation()
	for _, h := range []int{1, 4} {
		b.Run(map[int]string{1: "h1-datagram", 4: "h4-transport"}[h], func(b *testing.B) {
			var recoveries, retries int
			for i := 0; i < b.N; i++ {
				var err error
				if recoveries, retries, err = ablateTransport(cfg, h); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(recoveries), "history_recoveries")
			b.ReportMetric(float64(retries), "transport_retries")
		})
	}
}

// BenchmarkAblationCausalLabelling contrasts the intermediate interpretation
// (explicit single-dependency labels) against the temporal labelling CBCAST
// implies (depend on everything seen): under temporal labels one missing
// message parks every sequence behind it.
func BenchmarkAblationCausalLabelling(b *testing.B) {
	cfg := DefaultAblation()
	for _, shape := range []workload.Shape{workload.Ring, workload.Temporal} {
		b.Run(map[workload.Shape]string{workload.Ring: "intermediate", workload.Temporal: "temporal"}[shape], func(b *testing.B) {
			var waitPeak, p95 float64
			for i := 0; i < b.N; i++ {
				var err error
				if waitPeak, p95, err = ablateLabelling(cfg, shape); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(waitPeak, "wait_peak")
			b.ReportMetric(p95, "p95_rtd")
		})
	}
}

// BenchmarkAblationFlowControl contrasts history peaks without and with a 3n
// flow-control threshold while a crash stalls cleaning for the detection
// window (the paper's 8n plays the same role at its larger scale, cf.
// Figure 6b).
func BenchmarkAblationFlowControl(b *testing.B) {
	cfg := DefaultAblation()
	for _, threshold := range []int{0, 3 * cfg.N} {
		b.Run(map[int]string{0: "off", 3 * cfg.N: "3n"}[threshold], func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				var err error
				if peak, err = ablateFlowControl(cfg, threshold); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(peak, "histpeak")
		})
	}
}

// ---- Per-stage latency breakdown ----

// stageBreakdown runs the per-stage latency scenario at seed 1 with the event
// recorder attached and computes the stage table from its log: where between
// emission and uniform coverage a message spends its rounds. n=10 at full
// load, submitted on odd rounds so the outbox stage is visible (a message
// waits for the next subrun boundary), and a 1-in-50 send omission makes the
// waiting-list stage real: a dropped data message parks its sender's next
// message until recovery fills the gap.
func stageBreakdown() (lifecycle.Breakdown, error) {
	c, err := core.NewCluster(core.ClusterConfig{
		Config:   core.Config{N: 10, K: 3, R: 8, SelfExclusion: true},
		Seed:     1,
		Injector: &faultrt.DropEvery{N: 50, Side: faultrt.AtSend},
	})
	if err != nil {
		return lifecycle.Breakdown{}, err
	}
	rec := trace.NewRecorder(c.N())
	c.Trace = rec
	_, err = c.Run(core.RunOptions{
		MaxRounds: 2*60 + 200, MinRounds: 2 * 60,
		OnRound: func(round int) {
			if round%2 != 1 || round/2 >= 60 {
				return
			}
			for p := 0; p < c.N(); p++ {
				pp := mid.ProcID(p)
				if c.Active(pp) {
					_, _ = c.Submit(pp, payload(), nil)
				}
			}
		},
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		return lifecycle.Breakdown{}, err
	}
	return lifecycle.FromRecorder(rec), nil
}

// BenchmarkStageLatencyBreakdown reports the per-stage latency table
// EXPERIMENTS.md carries.
func BenchmarkStageLatencyBreakdown(b *testing.B) {
	b.ReportAllocs()
	var bd lifecycle.Breakdown
	for i := 0; i < b.N; i++ {
		var err error
		if bd, err = stageBreakdown(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bd.MeanEmitToBroadcast, "emit_to_bcast_rtd")
	b.ReportMetric(bd.MeanEmitToFirstProcess, "emit_to_first_rtd")
	b.ReportMetric(bd.MeanEmitToUniform, "emit_to_uniform_rtd")
	b.ReportMetric(bd.P99EmitToUniform, "emit_to_uniform_p99_rtd")
	b.ReportMetric(bd.MeanWait, "wait_rtd")
	b.ReportMetric(bd.P99Wait, "wait_p99_rtd")
}

// TestStageLatencyBreakdownTable pins EXPERIMENTS.md's per-stage latency
// table to what the scenario measures, to two decimals: a change that moves
// a cell has to restate the table.
func TestStageLatencyBreakdownTable(t *testing.T) {
	bd, err := stageBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cell string
		got  float64
		want string
	}{
		{"emit -> broadcast mean", bd.MeanEmitToBroadcast, "0.50"},
		{"emit -> first processing mean", bd.MeanEmitToFirstProcess, "0.50"},
		{"waiting-list mean", bd.MeanWait, "0.27"},
		{"waiting-list p99", bd.P99Wait, "1.98"},
		{"emit -> uniform mean", bd.MeanEmitToUniform, "1.07"},
		{"emit -> uniform p99", bd.P99EmitToUniform, "2.91"},
	} {
		if got := fmt.Sprintf("%.2f", c.got); got != c.want {
			t.Errorf("%s = %s rtd, EXPERIMENTS.md says %s", c.cell, got, c.want)
		}
	}
}
