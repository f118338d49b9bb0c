package benchsuite

import (
	"testing"
	"time"

	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

// SamplerOverhead is LiveConfirmLatency with the full observability stack
// attached: a metrics registry on the mesh and a flight recorder
// sampling every instrument at 1ms — an order of magnitude faster than
// urcgc-node's default, so the recorded number is an upper bound on what
// /timeseries costs a live cluster. Comparing its allocs/op against
// LiveConfirmLatency bounds the price of health monitoring when
// switched on; the sampler-disabled path is separately proven
// 0-extra-allocs by TestSamplerDisabledDeliverAllocFree in rt and
// TestFlightSampleAllocFree in obs.
func SamplerOverhead(b *testing.B) {
	reg := obs.New()
	flight := obs.NewFlight(reg, obs.FlightOptions{Interval: time.Millisecond, Cap: 2048})
	flight.Start()
	defer flight.Stop()
	benchLiveConfirm(b, rt.Config{Metrics: reg})
}
