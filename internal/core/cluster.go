package core

import (
	"fmt"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/metrics"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
	"urcgc/internal/trace"
	"urcgc/internal/transport"
	"urcgc/internal/wire"
)

// ClusterConfig configures a simulated group.
type ClusterConfig struct {
	Config
	// Seed drives every random choice of the run.
	Seed int64
	// Injector is the failure model; nil means a reliable system.
	Injector faultrt.Injector
	// Latency overrides the network latency model; nil means the default.
	Latency simnet.Latency
	// TransportH selects the paper's h parameter for the underlying
	// transport service (Section 5): h <= 1 mounts the protocol entities
	// directly on the datagram subnetwork, as all of the paper's
	// simulations do; h > 1 interposes transport entities that retransmit
	// every PDU until h destinations (clamped to the destination count)
	// have acknowledged, moving loss repair from the history into the
	// transport.
	TransportH int
}

// Cluster runs a full urcgc group inside the discrete-event simulator. It
// owns the engine, the network, the processes and the measurement hooks the
// experiments need.
type Cluster struct {
	cfg   ClusterConfig
	eng   *sim.Engine
	net   *simnet.Network
	procs []*Process
	ents  []*transport.Entity

	// Delay accumulates end-to-end delay samples (Figure 4).
	Delay *metrics.Delay
	// HistMax and HistMean sample the history length across live processes
	// once per round (Figure 6).
	HistMax  metrics.Series
	HistMean metrics.Series
	// WaitMax samples the waiting-list length across live processes.
	WaitMax metrics.Series

	// ProcessedLog records, per process, the MIDs in processing order, across
	// incarnations. The invariants are judged from Trace, not from here.
	ProcessedLog [][]mid.MID
	// DiscardLog records, per process, the MIDs destroyed by agreement.
	DiscardLog [][]mid.MID
	// Left records why each self-excluded process halted.
	Left map[mid.ProcID]LeaveReason
	// Decisions counts decisions observed per process.
	Decisions []int
	// OnDecision, when set, observes every fresh decision applied at any
	// process, with the cluster clock available via Engine().Now().
	OnDecision func(p mid.ProcID, d *wire.Decision)
	// Trace, when set before the first Submit, records every protocol event;
	// its Verify audits the run against Definition 3.2 through
	// faultrt.Checker.
	Trace *trace.Recorder

	crashSeen []bool
}

// netTransport adapts the simulated network to the process Transport. The
// network queues a PDU by reference until its delivery round and shares it
// between destinations, while the process only lends it for the call: this is
// where the simulator pays for keeping it, with one clone per Send or
// Broadcast.
type netTransport struct {
	nw   *simnet.Network
	self mid.ProcID
}

func (t netTransport) Send(dst mid.ProcID, pdu wire.PDU) { t.nw.Send(t.self, dst, wire.Clone(pdu)) }

func (t netTransport) Broadcast(pdu wire.PDU) {
	pdu = wire.Clone(pdu)
	for dst := 0; dst < t.nw.N(); dst++ {
		t.nw.Send(t.self, mid.ProcID(dst), pdu)
	}
}

// entTransport routes PDUs through a transport entity (h > 1), which keeps
// each for retransmission: cloned once, like netTransport's.
type entTransport struct {
	ent  *transport.Entity
	self mid.ProcID
	n    int
	h    int
}

func (t entTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	if dst == t.self {
		return
	}
	t.ent.DataRq([]mid.ProcID{dst}, t.h, nil, wire.Clone(pdu))
}

func (t entTransport) Broadcast(pdu wire.PDU) {
	dsts := make([]mid.ProcID, 0, t.n-1)
	for i := 0; i < t.n; i++ {
		if mid.ProcID(i) != t.self {
			dsts = append(dsts, mid.ProcID(i))
		}
	}
	t.ent.DataRq(dsts, t.h, nil, wire.Clone(pdu))
}

// procHandler forwards decapsulated PDUs to a process bound after the
// transport entity is constructed.
type procHandler struct{ p *Process }

func (h *procHandler) Recv(src mid.ProcID, pdu wire.PDU) {
	if h.p != nil {
		h.p.Recv(src, pdu)
	}
}

// NewCluster builds a group of cc.N simulated processes.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cc.Seed)
	nw := simnet.New(eng, cc.N, cc.Injector)
	if cc.Latency != nil {
		nw.SetLatency(cc.Latency)
	}
	c := &Cluster{
		cfg:          cc,
		eng:          eng,
		net:          nw,
		procs:        make([]*Process, cc.N),
		ents:         make([]*transport.Entity, cc.N),
		Delay:        metrics.NewDelay(),
		ProcessedLog: make([][]mid.MID, cc.N),
		DiscardLog:   make([][]mid.MID, cc.N),
		Left:         make(map[mid.ProcID]LeaveReason),
		Decisions:    make([]int, cc.N),
		crashSeen:    make([]bool, cc.N),
	}
	for i := 0; i < cc.N; i++ {
		id := mid.ProcID(i)
		cb := c.callbacks(id)
		if cc.TransportH > 1 {
			ph := &procHandler{}
			ent, err := transport.NewEntity(id, nw, eng, transport.Config{}, ph)
			if err != nil {
				return nil, err
			}
			p, err := NewProcess(id, cc.Config, entTransport{ent: ent, self: id, n: cc.N, h: cc.TransportH}, cb)
			if err != nil {
				return nil, err
			}
			ph.p = p
			c.procs[i] = p
			c.ents[i] = ent
			continue
		}
		p, err := NewProcess(id, cc.Config, netTransport{nw: nw, self: id}, cb)
		if err != nil {
			return nil, err
		}
		c.procs[i] = p
		nw.Attach(id, p)
	}
	return c, nil
}

// callbacks builds the measurement hooks for process id. Shared between
// cluster construction and Rejoin, so a joiner incarnation keeps feeding
// the same logs.
func (c *Cluster) callbacks(id mid.ProcID) Callbacks {
	eng := c.eng
	return Callbacks{
		OnGenerate: func(m *causal.Message) {
			c.Delay.Generated(m.ID, eng.Now())
			if c.Trace != nil {
				c.Trace.Generate(eng.Now(), id, m.ID, m.Deps)
			}
		},
		OnBroadcast: func(m *causal.Message) {
			if c.Trace != nil {
				c.Trace.Broadcast(eng.Now(), id, m.ID)
			}
		},
		OnWait: func(m *causal.Message, missing mid.DepList) {
			if c.Trace != nil {
				c.Trace.Wait(eng.Now(), id, m.ID, missing)
			}
		},
		OnProcess: func(m *causal.Message) {
			c.ProcessedLog[id] = append(c.ProcessedLog[id], m.ID)
			c.Delay.Processed(m.ID, eng.Now())
			if c.Trace != nil {
				c.Trace.Process(eng.Now(), id, m.ID)
			}
		},
		OnDiscard: func(m *causal.Message) {
			c.DiscardLog[id] = append(c.DiscardLog[id], m.ID)
			if c.Trace != nil {
				c.Trace.Discard(eng.Now(), id, m.ID)
			}
		},
		OnLeave: func(r LeaveReason) {
			c.Left[id] = r
			if c.Trace != nil {
				c.Trace.Leave(eng.Now(), id)
			}
		},
		OnDecision: func(d *wire.Decision) {
			c.Decisions[id]++
			if c.OnDecision != nil {
				c.OnDecision(id, d)
			}
		},
		OnJoinInstalled: func(stable mid.SeqVector) {
			if c.Trace != nil {
				c.Trace.Join(eng.Now(), id, stable)
			}
		},
		OnFastForward: func(q mid.ProcID, to mid.Seq) {
			if c.Trace != nil {
				c.Trace.FastForward(eng.Now(), id, q, to)
			}
		},
	}
}

// Rejoin replaces process i with a fresh joiner incarnation attached to the
// same network slot — the simulated leave/resync/rejoin cycle. The previous
// entity's volatile state is discarded, as a real restart would lose it;
// the new one bootstraps through the join protocol against a live sponsor.
// The Left record of the previous incarnation is cleared: its exit is
// undone by rejoining, which is the whole point. Callers pairing Rejoin
// with an injected crash should bound the crash to end at the rejoin
// instant, since the cluster driver keeps consulting the injector for
// liveness — TestSimJoinConvergence's crashWindow is the pattern; a crash of
// the new incarnation is traced afresh. Only direct-datagram clusters
// (TransportH <= 1) support rejoin.
func (c *Cluster) Rejoin(i mid.ProcID) error {
	if int(i) >= c.cfg.N || i < 0 {
		return fmt.Errorf("core: rejoin of process %d outside group of %d", i, c.cfg.N)
	}
	if c.cfg.TransportH > 1 {
		return fmt.Errorf("core: rejoin is unsupported with interposed transport entities")
	}
	cfg := c.cfg.Config
	cfg.Join = true
	p, err := NewProcess(i, cfg, netTransport{nw: c.net, self: i}, c.callbacks(i))
	if err != nil {
		return err
	}
	c.procs[i] = p
	c.net.Attach(i, p)
	delete(c.Left, i)
	c.crashSeen[i] = false
	return nil
}

// TransportEntity returns process i's transport entity, or nil when the
// cluster runs directly on datagrams (TransportH <= 1).
func (c *Cluster) TransportEntity(i mid.ProcID) *transport.Entity { return c.ents[i] }

// Engine returns the cluster's event engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Net returns the cluster's network (for load accounting).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Proc returns process i.
func (c *Cluster) Proc(i mid.ProcID) *Process { return c.procs[i] }

// N returns the group cardinality.
func (c *Cluster) N() int { return c.cfg.N }

// Crashed reports whether the failure model has fail-stopped process p.
func (c *Cluster) Crashed(p mid.ProcID) bool { return c.net.Crashed(p) }

// Active reports whether process p is still executing the protocol: not
// fail-stopped by the failure model and not self-excluded.
func (c *Cluster) Active(p mid.ProcID) bool {
	return !c.Crashed(p) && c.procs[p].Running()
}

// ActiveSet returns the identifiers of the active processes.
func (c *Cluster) ActiveSet() []mid.ProcID {
	var out []mid.ProcID
	for i := range c.procs {
		if c.Active(mid.ProcID(i)) {
			out = append(out, mid.ProcID(i))
		}
	}
	return out
}

// Submit queues a user message at process p (Process.Submit). Its
// generation instant and labels reach Delay and Trace through OnGenerate.
func (c *Cluster) Submit(p mid.ProcID, payload []byte, deps mid.DepList) (mid.MID, error) {
	return c.procs[p].Submit(payload, deps)
}

// SubmitCausal is Submit with the conservative depend-on-everything-seen
// labelling (Process.SubmitCausal).
func (c *Cluster) SubmitCausal(p mid.ProcID, payload []byte) (mid.MID, error) {
	return c.procs[p].SubmitCausal(payload)
}

// RunOptions controls a cluster run.
type RunOptions struct {
	// MaxRounds bounds the run (required, > 0).
	MaxRounds int
	// MinRounds prevents the quiescence check from firing before the
	// workload has been injected.
	MinRounds int
	// OnRound, if set, runs at every round start before the processes
	// tick — the place to inject workload.
	OnRound func(round int)
	// StopWhenQuiescent ends the run early once every active process has
	// drained (identical processed vectors, empty waiting lists and
	// outboxes), after DrainSubruns additional subruns for history
	// cleaning decisions to circulate.
	StopWhenQuiescent bool
	DrainSubruns      int
}

// RunResult reports how a run ended.
type RunResult struct {
	// Rounds actually executed.
	Rounds int
	// QuiescentAtRound is the first round at which the group was observed
	// quiescent, or -1.
	QuiescentAtRound int
	// End is the virtual time the run stopped at.
	End sim.Time
}

// Run drives the cluster for up to opts.MaxRounds rounds.
func (c *Cluster) Run(opts RunOptions) (RunResult, error) {
	if opts.MaxRounds <= 0 {
		return RunResult{}, fmt.Errorf("core: MaxRounds must be positive")
	}
	res := RunResult{QuiescentAtRound: -1}
	drainLeft := -1
	sim.NewTicker(c.eng, func(round int) bool {
		if round >= opts.MaxRounds {
			return false
		}
		res.Rounds = round + 1
		if opts.OnRound != nil {
			opts.OnRound(round)
		}
		if c.Trace != nil {
			for i := range c.procs {
				p := mid.ProcID(i)
				if !c.crashSeen[i] && c.Crashed(p) {
					c.crashSeen[i] = true
					c.Trace.Crash(c.eng.Now(), p)
				}
			}
		}
		c.sample()
		for i, p := range c.procs {
			if c.Crashed(mid.ProcID(i)) {
				continue
			}
			p.StartRound(round)
		}
		if opts.StopWhenQuiescent && round%2 == 1 && round >= opts.MinRounds {
			if res.QuiescentAtRound < 0 && c.Quiescent() {
				res.QuiescentAtRound = round
				drainLeft = opts.DrainSubruns
			}
			if drainLeft == 0 {
				return false
			}
			if drainLeft > 0 {
				drainLeft--
			}
		}
		return true
	})
	c.eng.Run()
	res.End = c.eng.Now()
	return res, nil
}

// Quiescent reports whether every active process has fully drained: no
// queued submissions, no waiting messages, and identical processed vectors.
func (c *Cluster) Quiescent() bool {
	var ref mid.SeqVector
	for i, p := range c.procs {
		if !c.Active(mid.ProcID(i)) {
			continue
		}
		if p.PendingSubmissions() > 0 || p.WaitingLen() > 0 {
			return false
		}
		if ref == nil {
			ref = p.Processed()
			continue
		}
		if !ref.Equal(p.Processed()) {
			return false
		}
	}
	return true
}

func (c *Cluster) sample() {
	maxH, sumH, maxW, live := 0, 0, 0, 0
	for i, p := range c.procs {
		if !c.Active(mid.ProcID(i)) {
			continue
		}
		live++
		if h := p.HistoryLen(); h > maxH {
			maxH = h
		}
		sumH += p.HistoryLen()
		if w := p.WaitingLen(); w > maxW {
			maxW = w
		}
	}
	if live == 0 {
		return
	}
	now := c.eng.Now()
	c.HistMax.Add(now, float64(maxH))
	c.HistMean.Add(now, float64(sumH)/float64(live))
	c.WaitMax.Add(now, float64(maxW))
}
