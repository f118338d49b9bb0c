package chaos

import (
	"context"
	"sync"
	"time"

	"urcgc/internal/health"
	"urcgc/internal/mid"
	"urcgc/internal/rt"
)

// degradation is one health rule having fired on one member's verdict for
// one group.
type degradation struct {
	group uint32
	node  mid.ProcID
	rule  string
}

// monitor is the harness's health watch: a poller judges every live member's
// status as its /healthz would and accumulates which (member, group) verdicts
// went unhealthy, and why, while the adversary was active.
type monitor struct {
	mesh *rt.Mesh

	mu       sync.Mutex
	degraded map[degradation]bool

	quit, done chan struct{}
}

// startMonitor polls every member of mesh at the given interval.
func startMonitor(mesh *rt.Mesh, every time.Duration) *monitor {
	m := &monitor{
		mesh:     mesh,
		degraded: make(map[degradation]bool),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
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

// eval takes every member's verdict now, remembering each rule that fired. A
// killed member is a crashed site: nobody asks it, and its verdict is left
// zero, as is that of a member whose status could not be taken. Evals run
// one at a time under mu, each status bounded by its timeout, so a reset
// falls between two of them.
func (m *monitor) eval() []health.Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]health.Status, m.mesh.N())
	for i := range out {
		node := m.mesh.Node(mid.ProcID(i))
		if node.Killed() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		st, err := node.Status(ctx)
		cancel()
		if err != nil {
			continue
		}
		out[i] = health.Judge(st)
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
	return m.degraded
}
