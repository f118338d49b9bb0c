package rt

import (
	"context"
	"runtime"
	"testing"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// liveGroup is the group every live confirm benchmark runs, so the observer
// off/on rows measure the same path.
var liveGroup = core.Config{N: 5, K: 3, R: 8, SelfExclusion: true}

// benchLiveConfirm measures the urcgc-data.Rq -> Conf latency on a live
// five-member Mesh with the observers cfg turns on (one confirm per
// iteration, round-robin over the members), exercising the real codec,
// validator and shard loops rather than the simulator. Besides testing's
// allocs/op it reports allocs_exact/op, the same count before the integer
// division: the observer off/on rows differ by fractions of an object per
// message.
func benchLiveConfirm(b *testing.B, cfg Config) {
	cfg.Config = liveGroup
	cfg.RoundDuration = 200 * time.Microsecond
	mesh, err := NewMesh(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mesh.Start()
	defer mesh.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	payload := make([]byte, 64)
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.Node(mid.ProcID(i%liveGroup.N)).Send(ctx, 0, payload, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs_exact/op")
}

// BenchmarkLiveConfirmLatency is the live confirm path with every observer
// off: the row the overhead benchmarks below are read against.
func BenchmarkLiveConfirmLatency(b *testing.B) { benchLiveConfirm(b, Config{}) }

// BenchmarkLifecycleOverhead is the confirm path with lifecycle tracing on.
// The disabled path is proven free by TestLifecycleDisabledAllocFree.
func BenchmarkLifecycleOverhead(b *testing.B) {
	benchLiveConfirm(b, Config{Lifecycle: &lifecycle.Options{}})
}

// BenchmarkSamplerOverhead is the confirm path with the full observability
// stack: a metrics registry on the mesh and a flight recorder sampling every
// instrument at 1ms, an order of magnitude faster than urcgc-node's default,
// so it bounds what /timeseries costs a live cluster from above. The
// disabled path is proven free by TestSamplerDisabledDeliverAllocFree here
// and TestFlightSampleAllocFree in obs.
func BenchmarkSamplerOverhead(b *testing.B) {
	reg := obs.New()
	flight := obs.NewFlight(reg, obs.FlightOptions{Interval: time.Millisecond, Cap: 2048})
	flight.Start()
	defer flight.Stop()
	benchLiveConfirm(b, Config{Metrics: reg})
}

// BenchmarkCaptureOverhead is the confirm path with the frame flight
// recorder on: one capture ring per member, at its default bounds, records
// every frame the member sends and receives.
func BenchmarkCaptureOverhead(b *testing.B) {
	rings := make([]*capture.Ring, liveGroup.N)
	for i := range rings {
		rings[i] = capture.New(capture.Options{
			Node: mid.ProcID(i), N: liveGroup.N, K: liveGroup.K, R: liveGroup.R,
			SelfExclusion: liveGroup.SelfExclusion,
		})
	}
	benchLiveConfirm(b, Config{Captures: rings})
}
