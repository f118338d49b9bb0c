package chaos

import (
	"strconv"
	"sync"
	"time"

	"urcgc/internal/health"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// degradation is one health rule having fired on one member's verdict for
// one group.
type degradation struct {
	group uint32
	node  mid.ProcID
	rule  string
}

// monitor is the harness's health watch: a flight recording of the shared
// registry feeds one health.Evaluator per member — the wiring urcgc-node
// serves on /healthz — and a poller accumulates which (member, group)
// verdicts went unhealthy, and why, while the adversary was active.
type monitor struct {
	flight *obs.Flight
	evals  []*health.Evaluator

	mu       sync.Mutex
	degraded map[degradation]bool

	quit, done chan struct{}
}

// startMonitor tunes the sampling interval and rule windows to the round
// length, so a soak at 2ms rounds degrades and recovers inside the CI smoke
// budget while a slower cluster still gets sane windows.
func startMonitor(cfg Config) *monitor {
	interval := max(5*cfg.Round, 10*time.Millisecond)
	th := health.Thresholds{
		TokenStallSamples: 10, HistoryWindow: 12, HistoryGrowthMin: 32,
		WaitingStuckSamples: 15, FrontierLagWindow: 12, FrontierLagMin: 12,
	}
	m := &monitor{
		flight:   obs.NewFlight(cfg.Metrics, obs.FlightOptions{Interval: interval, Cap: 2048}),
		degraded: make(map[degradation]bool),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := 0; i < cfg.N; i++ {
		m.evals = append(m.evals, health.New(m.flight, strconv.Itoa(i), cfg.Groups, th))
	}
	m.flight.Start()
	go func() {
		defer close(m.done)
		t := time.NewTicker(2 * interval)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-t.C:
				m.eval()
			}
		}
	}()
	return m
}

// eval takes every member's verdict now, remembering each rule that fired.
func (m *monitor) eval() []health.Status {
	out := make([]health.Status, len(m.evals))
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, e := range m.evals {
		out[i] = e.Eval()
		for _, r := range out[i].Reasons {
			m.degraded[degradation{uint32(r.Group), mid.ProcID(i), r.Rule}] = true
		}
	}
	return out
}

// reset forgets what degraded so far: a scenario's warm-up ends with it.
func (m *monitor) reset() {
	m.mu.Lock()
	clear(m.degraded)
	m.mu.Unlock()
}

// stop ends the watch and returns everything that degraded.
func (m *monitor) stop() map[degradation]bool {
	close(m.quit)
	<-m.done
	m.flight.Stop()
	return m.degraded
}
