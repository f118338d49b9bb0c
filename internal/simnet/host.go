package simnet

import (
	"fmt"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// Proc is a round-clocked protocol entity: urcgc, CBCAST and Psync
// processes all are.
type Proc interface {
	Handler
	StartRound(round int)
}

// Host runs a simulated group of processes of one protocol: it owns the
// engine and the network, clocks the processes round by round, and keeps
// the measurements every protocol shares, so the figures compare the
// protocols on one network.
type Host[P Proc] struct {
	eng   *sim.Engine
	net   *Network
	procs []P

	// Delay accumulates end-to-end delay samples (Figure 4), fed through
	// Generated and Processed.
	Delay *Delay
	// Log records, per process, the MIDs in processing order, across
	// incarnations.
	Log [][]mid.MID
}

// NewHost returns a host for n processes over a fresh engine seeded with
// seed and a network with the given failure injector (nil: reliable) and
// the default latency model. Attach each process before running.
func NewHost[P Proc](seed int64, n int, inj faultrt.Injector) *Host[P] {
	eng := sim.NewEngine(seed)
	return &Host[P]{
		eng:   eng,
		net:   New(eng, n, inj),
		procs: make([]P, n),
		Delay: NewDelay(),
		Log:   make([][]mid.MID, n),
	}
}

// Attach installs p as process i, both as the one Rounds clocks and as the
// network's handler for i; it replaces any earlier incarnation.
func (h *Host[P]) Attach(i mid.ProcID, p P) {
	h.net.Attach(i, p)
	h.procs[i] = p
}

// Engine returns the event engine.
func (h *Host[P]) Engine() *sim.Engine { return h.eng }

// Net returns the network (for load accounting).
func (h *Host[P]) Net() *Network { return h.net }

// Proc returns process i.
func (h *Host[P]) Proc(i mid.ProcID) P { return h.procs[i] }

// N returns the group cardinality.
func (h *Host[P]) N() int { return len(h.procs) }

// Crashed reports whether the failure model has fail-stopped process p.
func (h *Host[P]) Crashed(p mid.ProcID) bool { return h.net.Crashed(p) }

// Generated records that message id was generated now.
func (h *Host[P]) Generated(id mid.MID) { h.Delay.Generated(id, h.eng.Now()) }

// Processed records that process p processed message id now.
func (h *Host[P]) Processed(p mid.ProcID, id mid.MID) {
	h.Log[p] = append(h.Log[p], id)
	h.Delay.Processed(id, h.eng.Now())
}

// Rounds clocks the group for up to maxRounds rounds and runs the engine
// until it drains. At the start of every round it calls before (if set),
// then StartRound on every process not crashed, then after (if set), which
// ends the run by returning false.
func (h *Host[P]) Rounds(maxRounds int, before func(round int), after func(round int) bool) error {
	if maxRounds <= 0 {
		return fmt.Errorf("simnet: maxRounds must be positive")
	}
	sim.NewTicker(h.eng, func(round int) bool {
		if round >= maxRounds {
			return false
		}
		if before != nil {
			before(round)
		}
		for i, p := range h.procs {
			if !h.Crashed(mid.ProcID(i)) {
				p.StartRound(round)
			}
		}
		return after == nil || after(round)
	})
	h.eng.Run()
	return nil
}
