// Package transport implements the multicast transport service of Section 5
// of the paper: the primitive t.data.Rq(m, h, v, d) transfers data d to the
// destination set m with n-unicast semantics, retransmitting until at least
// h destinations have acknowledged (1 <= h <= |m|). The primitive never
// fails, even if fewer than h acknowledgements arrive — after five retries
// the entity simply stops retransmitting.
//
// The voting function v of the paper's tuple manages reply messages for
// client/server groups and is not used by the urcgc protocol; it is
// accepted and ignored, as in the paper.
//
// With h = 1 the service degenerates to the bare datagram network — the
// configuration all of the paper's simulations use — and packet losses
// surface as process omissions that urcgc repairs from history. With larger
// h the retransmission function moves into the transport, trading transport
// acks for fewer history recoveries; the ablation benchmarks quantify
// exactly that trade.
package transport

import (
	"fmt"

	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
	"urcgc/internal/wire"
)

// Frame wraps an upper-layer PDU with the transport header.
type Frame struct {
	Src     mid.ProcID
	Seq     uint32
	NeedAck bool
	Inner   wire.PDU
}

// KindFrame and KindAck are the transport-level PDU kinds (3x range).
const (
	KindFrame wire.Kind = 30
	KindAck   wire.Kind = 31
)

// Kind implements wire.PDU.
func (*Frame) Kind() wire.Kind { return KindFrame }

// EncodedSize implements wire.PDU: header(1+4+4+1) + inner.
func (f *Frame) EncodedSize() int { return 1 + 4 + 4 + 1 + f.Inner.EncodedSize() }

// Ack acknowledges a frame.
type Ack struct {
	Src mid.ProcID // acknowledging process
	Seq uint32
}

// Kind implements wire.PDU.
func (*Ack) Kind() wire.Kind { return KindAck }

// EncodedSize implements wire.PDU.
func (*Ack) EncodedSize() int { return 1 + 4 + 4 }

// Voting is the v parameter of t.data.Rq. The urcgc protocol never sets it;
// it exists for client/server groups that manage replies in the transport.
type Voting func(replies int) bool

// Handler receives upper-layer PDUs from the transport entity.
type Handler interface {
	Recv(src mid.ProcID, pdu wire.PDU)
}

// Config tunes a transport entity.
type Config struct {
	// MTU, when positive, fragments any PDU whose encoding exceeds it and
	// reassembles at the receiving entity (Section 5's fragmentation
	// service). Zero disables fragmentation.
	MTU int
}

// A request is retransmitted once a round, at most maxRetries times.
const (
	maxRetries = 5
	retryEvery = sim.TicksPerRound
)

// Entity is one process's transport entity (the mt-attached t-SAP of the
// paper's Figure 3). It lives on the simulated network.
type Entity struct {
	id      mid.ProcID
	nw      *simnet.Network
	eng     *sim.Engine
	cfg     Config
	upper   Handler
	nextSeq uint32
	seen    map[frameKey]bool
	pending map[uint32]*outstanding
	reasm   map[fragKey]*reassembly

	// Stats for the ablation benchmarks.
	Stats Stats
}

// Stats counts transport activity.
type Stats struct {
	Requests    int // t.data.Rq invocations
	Frames      int // frames sent, including retransmissions
	Retries     int
	Acks        int
	Delivered   int // inner PDUs handed to the upper layer
	Dups        int // duplicate frames suppressed
	Fragments   int // fragments sent
	Reassembled int // oversized PDUs reassembled and delivered
}

type frameKey struct {
	src mid.ProcID
	seq uint32
}

type outstanding struct {
	dsts    []mid.ProcID
	h       int
	acked   map[mid.ProcID]bool
	retries int
	frame   *Frame
	done    bool
}

// NewEntity attaches a transport entity for process id to the network. The
// entity registers itself as the simnet handler; the upper-layer handler
// receives the decapsulated PDUs.
func NewEntity(id mid.ProcID, nw *simnet.Network, eng *sim.Engine, cfg Config, upper Handler) (*Entity, error) {
	if upper == nil {
		return nil, fmt.Errorf("transport: nil upper handler")
	}
	e := &Entity{
		id:      id,
		nw:      nw,
		eng:     eng,
		cfg:     cfg,
		upper:   upper,
		seen:    make(map[frameKey]bool),
		pending: make(map[uint32]*outstanding),
		reasm:   make(map[fragKey]*reassembly),
	}
	nw.Attach(id, e)
	return e, nil
}

// DataRq is t.data.Rq(m, h, v, d): send d to every destination in m,
// retransmitting until h of them acknowledged. v is accepted for interface
// fidelity and ignored (the urcgc protocol does not use voting). h <= 1
// sends plain datagrams with no acknowledgement traffic at all.
func (e *Entity) DataRq(m []mid.ProcID, h int, v Voting, d wire.PDU) {
	_ = v
	e.Stats.Requests++
	if h > len(m) {
		h = len(m)
	}
	if h <= 1 {
		for _, dst := range m {
			if dst == e.id {
				continue
			}
			if enc, oversized := e.oversized(d); oversized {
				e.sendFragmented(dst, d, enc)
				continue
			}
			e.Stats.Frames++
			e.nw.Send(e.id, dst, &Frame{Src: e.id, Seq: e.allocSeq(), Inner: d})
		}
		return
	}
	seq := e.allocSeq()
	out := &outstanding{h: h, acked: make(map[mid.ProcID]bool), frame: &Frame{Src: e.id, Seq: seq, NeedAck: true, Inner: d}}
	for _, dst := range m {
		if dst != e.id {
			out.dsts = append(out.dsts, dst)
		}
	}
	if len(out.dsts) == 0 {
		return
	}
	if out.h > len(out.dsts) {
		out.h = len(out.dsts)
	}
	e.pending[seq] = out
	e.transmit(out)
	e.scheduleRetry(seq)
}

func (e *Entity) allocSeq() uint32 {
	e.nextSeq++
	return e.nextSeq
}

func (e *Entity) transmit(out *outstanding) {
	for _, dst := range out.dsts {
		if out.acked[dst] {
			continue
		}
		e.Stats.Frames++
		e.nw.Send(e.id, dst, out.frame)
	}
}

func (e *Entity) scheduleRetry(seq uint32) {
	e.eng.After(retryEvery, func() {
		out, ok := e.pending[seq]
		if !ok || out.done {
			return
		}
		if len(out.acked) >= out.h || out.retries >= maxRetries {
			out.done = true
			delete(e.pending, seq)
			return // the primitive never fails; it just stops trying
		}
		out.retries++
		e.Stats.Retries++
		e.transmit(out)
		e.scheduleRetry(seq)
	})
}

// Recv implements simnet.Handler: decapsulate, dedup, ack, deliver.
func (e *Entity) Recv(src mid.ProcID, pdu wire.PDU) {
	switch f := pdu.(type) {
	case *Frame:
		if f.NeedAck {
			e.Stats.Acks++
			e.nw.Send(e.id, src, &Ack{Src: e.id, Seq: f.Seq})
		}
		k := frameKey{src: f.Src, seq: f.Seq}
		if e.seen[k] {
			e.Stats.Dups++
			return
		}
		e.seen[k] = true
		e.Stats.Delivered++
		e.upper.Recv(f.Src, f.Inner)
	case *Ack:
		for seq, out := range e.pending {
			if seq == f.Seq {
				out.acked[src] = true
				if len(out.acked) >= out.h {
					out.done = true
					delete(e.pending, seq)
				}
				break
			}
		}
	case *Fragment:
		e.recvFragment(f)
	default:
		// Raw PDU from a peer not running the transport layer: pass it up.
		e.upper.Recv(src, pdu)
	}
}

// oversized reports whether the PDU needs fragmentation and, if so, returns
// its encoding. PDUs that cannot be marshaled (baseline-protocol PDUs) are
// never fragmented.
func (e *Entity) oversized(d wire.PDU) ([]byte, bool) {
	if e.cfg.MTU <= 0 || d.EncodedSize() <= e.cfg.MTU {
		return nil, false
	}
	enc, err := wire.Marshal(d)
	if err != nil {
		return nil, false
	}
	return enc, true
}
