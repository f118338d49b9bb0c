// Package simnet provides the simulated datagram subnetwork the protocol
// entities run over: n-unicast sends with sub-round latency, failure
// injection under the general omission model, and byte-accurate load
// accounting. Host drives a whole simulated group of urcgc, CBCAST or Psync
// processes over it, and records the quantities the paper's evaluation
// reports: mean end-to-end delay D (generation to processing, in rtd), the
// amount and size of control messages (network load, Table 1) and history
// and waiting-list lengths over time (Figure 6).
//
// The service deliberately matches the weakest transport of Section 5
// (h = 1): pure datagrams, no acknowledgements, no retransmission. The
// urcgc entity sits directly on top, as in the paper's simulations, so every
// loss must be recovered through the protocol's own history mechanism.
package simnet

import (
	"fmt"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

// Handler receives delivered PDUs. Implementations must not retain pdu
// beyond the call unless they own it; the simulator passes PDUs by
// reference without copying.
type Handler interface {
	Recv(src mid.ProcID, pdu wire.PDU)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(src mid.ProcID, pdu wire.PDU)

// Recv implements Handler.
func (f HandlerFunc) Recv(src mid.ProcID, pdu wire.PDU) { f(src, pdu) }

// Latency computes the one-way delay of a packet. It must return a value in
// (0, TicksPerRound) so that a packet sent at a round's start is delivered
// before the next round begins — the round-synchronous model of Section 4.
type Latency func(src, dst mid.ProcID, eng *sim.Engine) sim.Time

// DefaultLatency is half a round plus uniform jitter of up to a fifth of a
// round: rtd/4 on average each way, so a request/decision exchange completes
// within its subrun.
func DefaultLatency(_, _ mid.ProcID, eng *sim.Engine) sim.Time {
	return sim.TicksPerRound/2 + sim.Time(eng.RNG().Int63n(int64(sim.TicksPerRound/5)))
}

// FixedLatency returns a Latency with no jitter.
func FixedLatency(d sim.Time) Latency {
	return func(_, _ mid.ProcID, _ *sim.Engine) sim.Time { return d }
}

// Network is the simulated subnetwork for one group, and the one place the
// simulator consults its failure injector.
type Network struct {
	eng      *sim.Engine
	inj      faultrt.Injector
	latency  Latency
	handlers []Handler
	load     *Load
	drops    int

	// OnDeliver, when non-nil, observes every successful delivery. Used by
	// tests and examples/faultdemo's narration.
	OnDeliver func(src, dst mid.ProcID, pdu wire.PDU)
}

// New returns a network for n processes over the given engine with the given
// failure injector; nil means a reliable system.
func New(eng *sim.Engine, n int, inj faultrt.Injector) *Network {
	if inj == nil {
		inj = faultrt.None{}
	}
	return &Network{
		eng:      eng,
		inj:      inj,
		latency:  DefaultLatency,
		handlers: make([]Handler, n),
		load:     NewLoad(),
	}
}

// SetLatency replaces the latency model. Must be called before traffic flows.
func (nw *Network) SetLatency(l Latency) { nw.latency = l }

// Attach registers the handler for process p. Traffic to an unattached
// process is silently dropped (it models a site that never came up).
func (nw *Network) Attach(p mid.ProcID, h Handler) {
	if int(p) >= len(nw.handlers) || p < 0 {
		panic(fmt.Sprintf("simnet: attach of process %d outside group of %d", p, len(nw.handlers)))
	}
	nw.handlers[p] = h
}

// N returns the group cardinality.
func (nw *Network) N() int { return len(nw.handlers) }

// Load returns the byte-accurate traffic accountant. Load is accounted at
// send time (offered load), before any omission, which matches how the
// paper counts generated control messages.
func (nw *Network) Load() *Load { return nw.load }

// Drops returns the number of packets destroyed by the failure injector.
func (nw *Network) Drops() int { return nw.drops }

// Crashed reports whether the failure model has fail-stopped process p by
// the engine's current time.
func (nw *Network) Crashed(p mid.ProcID) bool {
	return nw.inj.Crashed(p, nw.eng.Now().Duration())
}

// Send transmits one datagram from src to dst. Sends from a crashed process
// or to oneself are ignored (processes handle their own messages locally).
func (nw *Network) Send(src, dst mid.ProcID, pdu wire.PDU) {
	if src == dst {
		return
	}
	now := nw.eng.Now().Duration()
	if nw.inj.Crashed(src, now) {
		return
	}
	nw.load.Add(pdu.Kind(), pdu.EncodedSize())
	if dropped(nw.inj.Send(0, src, dst, now)) {
		nw.drops++
		return
	}
	d := nw.latency(src, dst, nw.eng)
	nw.eng.After(d, func() { nw.deliver(src, dst, pdu) })
}

// Endpoint returns process self's view of the network: the Transport the
// urcgc, CBCAST and Psync processes send through.
func (nw *Network) Endpoint(self mid.ProcID) Endpoint { return Endpoint{nw: nw, self: self} }

// Endpoint sends as one process. The network queues a PDU by reference until
// its delivery and shares it between destinations, while a process only lends
// it for the call: each Send or Broadcast clones it once. wire.Clone passes
// the baselines' own PDU types through, so they pay nothing.
type Endpoint struct {
	nw   *Network
	self mid.ProcID
}

// Send transmits pdu to dst.
func (e Endpoint) Send(dst mid.ProcID, pdu wire.PDU) { e.nw.Send(e.self, dst, wire.Clone(pdu)) }

// Broadcast transmits pdu to every other member with independent latencies
// and losses — the n-unicast semantics of the paper's transport service.
func (e Endpoint) Broadcast(pdu wire.PDU) {
	pdu = wire.Clone(pdu)
	for dst := 0; dst < e.nw.N(); dst++ {
		e.nw.Send(e.self, mid.ProcID(dst), pdu)
	}
}

func (nw *Network) deliver(src, dst mid.ProcID, pdu wire.PDU) {
	now := nw.eng.Now().Duration()
	if nw.inj.Crashed(dst, now) || dropped(nw.inj.Recv(0, src, dst, now)) {
		nw.drops++
		return
	}
	h := nw.handlers[dst]
	if h == nil {
		nw.drops++
		return
	}
	if nw.OnDeliver != nil {
		nw.OnDeliver(src, dst, pdu)
	}
	h.Recv(src, pdu)
}

// dropped applies a verdict. The sub-round latency model has no place for a
// delayed or duplicated datagram, so those verdicts are refused: they belong
// on the live runtime's link (internal/rt).
func dropped(a faultrt.Action) bool {
	if a.Delay != 0 || a.Dup != 0 {
		panic(fmt.Sprintf("simnet: injector verdict %+v delays or duplicates; only the live runtime's link (internal/rt) implements those", a))
	}
	return a.Drop
}

// MatrixLatency draws per-pair latencies from a base matrix plus uniform
// jitter, modelling heterogeneous topologies (e.g. two LANs joined by a
// slower link). Base entries and jitter must keep every delay inside a
// round so the round-synchronous protocol assumptions hold; values are
// clamped defensively.
func MatrixLatency(base [][]sim.Time, jitter sim.Time) Latency {
	return func(src, dst mid.ProcID, eng *sim.Engine) sim.Time {
		d := sim.TicksPerRound / 2
		if int(src) < len(base) && int(dst) < len(base[src]) {
			d = base[src][dst]
		}
		if jitter > 0 {
			d += sim.Time(eng.RNG().Int63n(int64(jitter)))
		}
		if d < 1 {
			d = 1
		}
		if max := sim.TicksPerRound - 1; d > max {
			d = max
		}
		return d
	}
}

// TwoSiteLatency models two sites: traffic within a site takes local,
// traffic across the cut takes remote (both plus jitter). SiteA lists the
// members of one site.
func TwoSiteLatency(siteA map[mid.ProcID]bool, local, remote, jitter sim.Time) Latency {
	return func(src, dst mid.ProcID, eng *sim.Engine) sim.Time {
		d := local
		if siteA[src] != siteA[dst] {
			d = remote
		}
		if jitter > 0 {
			d += sim.Time(eng.RNG().Int63n(int64(jitter)))
		}
		if d < 1 {
			d = 1
		}
		if max := sim.TicksPerRound - 1; d > max {
			d = max
		}
		return d
	}
}
