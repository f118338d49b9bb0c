// Package benchsuite holds the benchmark bodies for the paper's evaluation
// figures and the protocol's hot paths. The root bench_test.go wraps each
// function as a standard `go test -bench` benchmark, while cmd/urcgc-bench
// runs the same bodies through testing.Benchmark to record the
// BENCH_BASELINE.json perf artifact — one implementation, two harnesses, so
// the committed baseline and the CI benches can never drift apart.
package benchsuite

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/cbcast"
	"urcgc/internal/core"
	"urcgc/internal/experiments"
	"urcgc/internal/fault"
	"urcgc/internal/history"
	"urcgc/internal/mid"
	"urcgc/internal/rt"
	"urcgc/internal/sim"
	"urcgc/internal/vclock"
	"urcgc/internal/waitlist"
	"urcgc/internal/wire"
)

// Case names one benchmark of the recorded baseline.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// Baseline lists the benches recorded in BENCH_BASELINE.json: the Fig. 4/5/6
// end-to-end benches plus the hot-path micro benches. Every future perf PR
// refreshes the artifact and has these numbers to beat.
func Baseline() []Case {
	return []Case{
		{"Fig4Reliable", Fig4Reliable},
		{"Fig4Crashes", Fig4Crashes},
		{"Fig4Omit500", Fig4Omit500},
		{"Fig4Omit100", Fig4Omit100},
		{"Fig5", Fig5},
		{"Fig6a", Fig6a},
		{"Fig6b", Fig6b},
		{"DeliveryReadyTest", DeliveryReadyTest},
		{"HistoryStoreAndClean", HistoryStoreAndClean},
		{"WaitlistCascade", WaitlistCascade},
		{"WireMarshalDecision", WireMarshalDecision},
		{"WireMarshalAppendDecision", WireMarshalAppendDecision},
		{"WireUnmarshalData", WireUnmarshalData},
		{"WireDecodeStreamData", WireDecodeStreamData},
		{"WireDecodeStreamBatch32", WireDecodeStreamBatch32},
		{"IdleSubrunN3", IdleSubrunN3},
		{"IdleSubrunN9", IdleSubrunN9},
		{"VectorClockDeliverable", VectorClockDeliverable},
		{"CBCASTRun", CBCASTRun},
		{"LiveConfirmLatency", LiveConfirmLatency},
		{"StageLatencyBreakdown", StageLatencyBreakdown},
		{"LifecycleOverhead", LifecycleOverhead},
		{"SamplerOverhead", SamplerOverhead},
		{"ThroughputSaturationN5B1", ThroughputSaturationN5B1},
		{"ThroughputSaturationN5B8", ThroughputSaturationN5B8},
		{"ThroughputSaturationN5B32", ThroughputSaturationN5B32},
		{"ThroughputSaturationN9B32", ThroughputSaturationN9B32},
		{"GroupScalingG1S1", GroupScalingG1S1},
		{"GroupScalingG2S2", GroupScalingG2S2},
		{"GroupScalingG4S4", GroupScalingG4S4},
		{"GroupScalingG8S8", GroupScalingG8S8},
		{"GroupScalingG8S1", GroupScalingG8S1},
		{"SetupUDPNodeN3", SetupUDPNodeN3},
		{"SetupMultiNodeN3G1", SetupMultiNodeN3G1},
		{"SetupClusterN5", SetupClusterN5},
	}
}

// ---- Figure 4: mean end-to-end delay vs offered load ----

func benchFig4(b *testing.B, inj func() fault.Injector) {
	b.ReportAllocs()
	var lastD float64
	for i := 0; i < b.N; i++ {
		var fi fault.Injector
		if inj != nil {
			fi = inj()
		}
		c, err := core.NewCluster(core.ClusterConfig{
			Config:   core.Config{N: 10, K: 3, R: 8, SelfExclusion: true},
			Seed:     int64(i) + 1,
			Injector: fi,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i) + 7))
		_, err = c.Run(core.RunOptions{
			MaxRounds: 2*120 + 200, MinRounds: 2 * 120,
			OnRound: func(round int) {
				if round%2 != 0 || round/2 >= 120 {
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
		lastD = c.Delay.MeanRTD()
	}
	b.ReportMetric(lastD, "delay_rtd")
}

// Fig4Reliable is the failure-free load/delay curve point.
func Fig4Reliable(b *testing.B) { benchFig4(b, nil) }

// Fig4Crashes injects four staggered crashes (the paper's crash curve).
func Fig4Crashes(b *testing.B) {
	benchFig4(b, func() fault.Injector {
		return fault.Multi{
			fault.Crash{Proc: 9, At: sim.StartOfSubrun(20)},
			fault.Crash{Proc: 8, At: sim.StartOfSubrun(45)},
			fault.Crash{Proc: 7, At: sim.StartOfSubrun(70)},
			fault.Crash{Proc: 6, At: sim.StartOfSubrun(95)},
		}
	})
}

// Fig4Omit500 drops every 500th send.
func Fig4Omit500(b *testing.B) {
	benchFig4(b, func() fault.Injector { return &fault.EveryNth{N: 500, Side: fault.AtSend} })
}

// Fig4Omit100 drops every 100th send.
func Fig4Omit100(b *testing.B) {
	benchFig4(b, func() fault.Injector { return &fault.EveryNth{N: 100, Side: fault.AtSend} })
}

// ---- Figure 5: agreement time vs consecutive coordinator crashes ----

// Fig5 measures agreement time with 0 and 2 coordinator crashes, for urcgc
// and the CBCAST baseline.
func Fig5(b *testing.B) {
	b.ReportAllocs()
	var res experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig5(experiments.Fig5Config{N: 10, K: 3, Fs: []int{0, 2}, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Points) == 2 {
		b.ReportMetric(res.Points[0].URCGCMeasured, "urcgcT(f=0)_rtd")
		b.ReportMetric(res.Points[1].URCGCMeasured, "urcgcT(f=2)_rtd")
		b.ReportMetric(res.Points[0].CBCASTMeasured, "cbcastT(f=0)_rtd")
		b.ReportMetric(res.Points[1].CBCASTMeasured, "cbcastT(f=2)_rtd")
	}
}

// ---- Table 1: control messages and sizes ----

// Table1 regenerates the control-traffic table at n=15.
func Table1(b *testing.B) {
	b.ReportAllocs()
	var res experiments.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table1(experiments.Table1Config{Ns: []int{15}, K: 3, Subruns: 40, Seed: int64(i) + 1})
		if err != nil {
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

func benchFig6(b *testing.B, flow bool) {
	b.ReportAllocs()
	var res experiments.Fig6Result
	cfg := experiments.Fig6Config{
		N: 40, Messages: 480, Ks: []int{3}, Threshold: 320, FailWindowRTD: 5, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		var err error
		if flow {
			res, err = experiments.Fig6b(cfg)
		} else {
			res, err = experiments.Fig6a(cfg)
		}
		if err != nil {
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

// Fig6a plots history growth without flow control.
func Fig6a(b *testing.B) { benchFig6(b, false) }

// Fig6b plots history growth with the flow-control threshold.
func Fig6b(b *testing.B) { benchFig6(b, true) }

// ---- Hot-path micro-benchmarks ----

// DeliveryReadyTest measures the causal readiness test on a warm tracker.
func DeliveryReadyTest(b *testing.B) {
	tr := causal.NewTracker(40)
	for q := 0; q < 40; q++ {
		for s := mid.Seq(1); s <= 10; s++ {
			if err := tr.Process(&causal.Message{ID: mid.MID{Proc: mid.ProcID(q), Seq: s}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	m := &causal.Message{
		ID:   mid.MID{Proc: 3, Seq: 11},
		Deps: mid.DepList{{Proc: 7, Seq: 10}, {Proc: 20, Seq: 9}, {Proc: 39, Seq: 10}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tr.Ready(m) {
			b.Fatal("should be ready")
		}
	}
}

// HistoryStoreAndClean measures the store-then-purge cycle for 40 senders.
func HistoryStoreAndClean(b *testing.B) {
	b.ReportAllocs()
	stable := mid.NewSeqVector(40)
	for i := range stable {
		stable[i] = 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := history.New(40)
		for q := 0; q < 40; q++ {
			for s := mid.Seq(1); s <= 10; s++ {
				if err := h.Store(&causal.Message{ID: mid.MID{Proc: mid.ProcID(q), Seq: s}}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if h.CleanTo(stable) != 400 {
			b.Fatal("clean mismatch")
		}
	}
}

// WaitlistCascade measures releasing a 64-deep reversed dependency chain.
func WaitlistCascade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := causal.NewTracker(8)
		wl := waitlist.New(8)
		// A chain of 64 messages arriving in reverse.
		for s := mid.Seq(64); s >= 2; s-- {
			wl.Add(&causal.Message{ID: mid.MID{Proc: 0, Seq: s}})
		}
		b.StartTimer()
		if err := tr.Process(&causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}); err != nil {
			b.Fatal(err)
		}
		for {
			m := wl.NextReady(tr)
			if m == nil {
				break
			}
			wl.Remove(m.ID)
			if err := tr.Process(m); err != nil {
				b.Fatal(err)
			}
		}
		if wl.Len() != 0 {
			b.Fatal("cascade incomplete")
		}
	}
}

// benchDecision builds the n=40 decision used by the codec benches.
func benchDecision() *wire.Decision {
	return &wire.Decision{
		Subrun:       1234,
		Coord:        3,
		MaxProcessed: mid.NewSeqVector(40),
		MostUpdated:  make([]mid.ProcID, 40),
		MinWaiting:   mid.NewSeqVector(40),
		CleanTo:      mid.NewSeqVector(40),
		Attempts:     make([]uint8, 40),
		Alive:        make([]bool, 40),
		Covered:      make([]bool, 40),
	}
}

// WireMarshalDecision round-trips an n=40 decision through Marshal and
// Unmarshal — the dominant control-plane codec cost per round.
func WireMarshalDecision(b *testing.B) {
	d := benchDecision()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := wire.Marshal(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// WireMarshalAppendDecision measures the pure encode hot path: MarshalAppend
// into a reused buffer, which the broadcast fan-out runs once per PDU. It
// must stay allocation-free.
func WireMarshalAppendDecision(b *testing.B) {
	d := benchDecision()
	buf := make([]byte, 0, d.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.MarshalAppend(buf[:0], d)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchMsg is a data message of two labels and a 64-byte payload.
func benchMsg(seq mid.Seq) causal.Message {
	return causal.Message{
		ID:      mid.MID{Proc: 3, Seq: seq},
		Deps:    mid.DepList{{Proc: 0, Seq: 4}, {Proc: 2, Seq: 9}},
		Payload: make([]byte, 64),
	}
}

// WireUnmarshalData measures decoding a 64-byte-payload data message with the
// plain, allocate-fresh decoder: what a frame costs a holder that keeps it.
func WireUnmarshalData(b *testing.B) {
	buf, err := wire.Marshal(&wire.Data{Msg: benchMsg(17)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDecodeStream decodes one frame per op through one FreeList and hands
// the record back, as a runtime loop does after Recv — the per-datagram cost
// of the live readers. The messages are carved from the list's arena, so a
// stream costs a share of a chunk per frame: 0 allocs/op, held exactly by
// `make bench-allocs`.
func benchDecodeStream(b *testing.B, p wire.PDU) {
	buf, err := wire.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	f := wire.NewFreeList()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdu, err := f.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		f.Put(pdu)
	}
}

// WireDecodeStreamData is a stream of singleton Data frames, what an
// unbatched group's receivers decode.
func WireDecodeStreamData(b *testing.B) { benchDecodeStream(b, &wire.Data{Msg: benchMsg(17)}) }

// WireDecodeStreamBatch32 is a stream of full 32-message DataBatch frames,
// what a saturated group's receivers decode.
func WireDecodeStreamBatch32(b *testing.B) {
	batch := &wire.DataBatch{Msgs: make([]causal.Message, 32)}
	for i := range batch.Msgs {
		batch.Msgs[i] = benchMsg(mid.Seq(i + 1))
	}
	benchDecodeStream(b, batch)
}

// VectorClockDeliverable measures the CBCAST delivery test.
func VectorClockDeliverable(b *testing.B) {
	local := vclock.New(40)
	ts := vclock.New(40)
	for i := range local {
		local[i] = uint32(i)
		ts[i] = uint32(i)
	}
	ts[5] = local[5] + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !vclock.Deliverable(ts, 5, local) {
			b.Fatal("should deliver")
		}
	}
}

// CBCASTRun exercises the baseline end to end for comparison with the urcgc
// figure benches.
func CBCASTRun(b *testing.B) {
	b.ReportAllocs()
	var d float64
	for i := 0; i < b.N; i++ {
		c, err := cbcast.NewCluster(cbcast.ClusterConfig{
			Config: cbcast.Config{N: 10, K: 3},
			Seed:   int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		err = c.Run(2*120+100, func(round int) {
			if round%2 != 0 || round/2 >= 120 {
				return
			}
			for p := 0; p < c.N(); p++ {
				c.Submit(mid.ProcID(p), make([]byte, 64))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		d = c.Delay.MeanRTD()
	}
	b.ReportMetric(d, "delay_rtd")
}

// ---- Throughput saturation: msgs/sec x cluster size x batch size ----

// benchThroughput saturates a live mesh cluster of n nodes with many
// concurrent blocking senders and reports sustained confirmed messages per
// second. batch <= 1 runs the classic path — one Data broadcast per subrun
// per node, so throughput is capped near n/subrun — while batch > 1 turns
// on the coalescing sender and multi-message DataBatch frames.
func benchThroughput(b *testing.B, n, batch int) {
	cfg := rt.Config{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: 200 * time.Microsecond,
	}
	if batch > 1 {
		cfg.BatchWindow = 100 * time.Microsecond
		cfg.BatchMax = batch
	}
	c, err := rt.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	payload := make([]byte, 64)
	// Enough in-flight senders per node to fill every subrun's drain even
	// at the largest batch budget benched.
	const workers = 64
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				if _, err := c.Node(mid.ProcID(int(i)%n)).Send(ctx, payload, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// ThroughputSaturationN5B1 is the unbatched control: five nodes, classic
// one-Data-per-subrun hot path.
func ThroughputSaturationN5B1(b *testing.B) { benchThroughput(b, 5, 1) }

// ThroughputSaturationN5B8 batches up to 8 messages per subrun drain.
func ThroughputSaturationN5B8(b *testing.B) { benchThroughput(b, 5, 8) }

// ThroughputSaturationN5B32 batches up to 32 messages per subrun drain —
// the acceptance shape, required to confirm >= 3x the unbatched rate.
func ThroughputSaturationN5B32(b *testing.B) { benchThroughput(b, 5, 32) }

// ThroughputSaturationN9B32 scales the batched shape to nine nodes.
func ThroughputSaturationN9B32(b *testing.B) { benchThroughput(b, 9, 32) }

// LiveConfirmLatency measures the urcgc-data.Rq -> Conf latency on the live
// goroutine runtime (one confirm per iteration), exercising the real codec
// and channel mesh rather than the simulator.
func LiveConfirmLatency(b *testing.B) {
	c, err := rt.NewCluster(rt.Config{
		Config:        core.Config{N: 5, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: 200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Node(mid.ProcID(i%5)).Send(ctx, payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}
