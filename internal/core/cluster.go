package core

import (
	"fmt"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
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
	// TransportH selects the paper's h parameter for the underlying
	// transport service (Section 5): h <= 1 mounts the protocol entities
	// directly on the datagram subnetwork, as all of the paper's
	// simulations do; h > 1 interposes transport entities that retransmit
	// every PDU until h destinations (clamped to the destination count)
	// have acknowledged, moving loss repair from the history into the
	// transport.
	TransportH int
	// Observe, when set, is asked once per incarnation of process p — at
	// NewCluster and at every Rejoin — for hooks that run after the
	// cluster's own (Chain); c.Engine().Now() is the cluster clock.
	Observe func(c *Cluster, p mid.ProcID) Callbacks
	// Checker, when set, is fed the run online and judged by Check against
	// Definition 3.2. It is Audit's feed plus what only the host knows: a
	// Halt at the first round a process is seen crashed, and every
	// processed message recorded with the labels its origin generated, not
	// the receiver's copy, so a protocol that loses a dependency on the way
	// cannot hide it.
	Checker *faultrt.Checker
}

// Cluster runs a full urcgc group inside the discrete-event simulator, on
// the simnet.Host the baselines share, and adds the measurement hooks the
// urcgc experiments need. Its Log is the processing order per process,
// across incarnations; the invariants are judged by Check, not from there.
type Cluster struct {
	*simnet.Host[*Process]
	cfg  ClusterConfig
	ents []*transport.Entity

	// HistMax and HistMean sample the history length across live processes
	// once per round (Figure 6).
	HistMax  simnet.Series
	HistMean simnet.Series
	// WaitMax samples the waiting-list length across live processes.
	WaitMax simnet.Series

	// DiscardLog records, per process, the MIDs destroyed by agreement.
	DiscardLog [][]mid.MID
	// Left records why each self-excluded process halted.
	Left map[mid.ProcID]LeaveReason

	// With a Checker: whether each current incarnation was seen crashed, and
	// every message's labels as its origin generated them.
	crashSeen []bool
	labels    map[mid.MID]mid.DepList
}

// entTransport routes PDUs through a transport entity (h > 1), which keeps
// each for retransmission: cloned once, like simnet.Endpoint's.
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
	c := &Cluster{
		Host:       simnet.NewHost[*Process](cc.Seed, cc.N, cc.Injector),
		cfg:        cc,
		ents:       make([]*transport.Entity, cc.N),
		DiscardLog: make([][]mid.MID, cc.N),
		Left:       make(map[mid.ProcID]LeaveReason),
		crashSeen:  make([]bool, cc.N),
		labels:     make(map[mid.MID]mid.DepList),
	}
	nw := c.Net()
	for i := 0; i < cc.N; i++ {
		id := mid.ProcID(i)
		cb := c.callbacks(id)
		if cc.TransportH <= 1 {
			p, err := NewProcess(id, cc.Config, nw.Endpoint(id), cb)
			if err != nil {
				return nil, err
			}
			c.Attach(id, p)
			continue
		}
		ph := &procHandler{}
		ent, err := transport.NewEntity(id, nw, c.Engine(), transport.Config{}, ph)
		if err != nil {
			return nil, err
		}
		p, err := NewProcess(id, cc.Config, entTransport{ent: ent, self: id, n: cc.N, h: cc.TransportH}, cb)
		if err != nil {
			return nil, err
		}
		ph.p = p
		c.Attach(id, p)
		// The entity, not the process, receives from the network.
		nw.Attach(id, ent)
		c.ents[i] = ent
	}
	return c, nil
}

// callbacks builds process id's hooks: the measurements, the checker feed,
// then the observer's. Shared between cluster construction and Rejoin, so a
// joiner incarnation keeps feeding the same logs.
func (c *Cluster) callbacks(id mid.ProcID) Callbacks {
	cb := Callbacks{
		OnGenerate: func(m *causal.Message) { c.Generated(m.ID) },
		OnProcess:  func(m *causal.Message) { c.Processed(id, m.ID) },
		OnDiscard:  func(m *causal.Message) { c.DiscardLog[id] = append(c.DiscardLog[id], m.ID) },
		OnLeave:    func(r LeaveReason) { c.Left[id] = r },
	}
	if ck := c.cfg.Checker; ck != nil {
		audit := Audit(ck, id)
		audit.OnGenerate = func(m *causal.Message) { c.labels[m.ID] = m.Deps.Clone() }
		audit.OnProcess = func(m *causal.Message) {
			ck.Record(id, &causal.Message{ID: m.ID, Deps: c.labels[m.ID]})
		}
		cb = Chain(cb, audit)
	}
	if c.cfg.Observe != nil {
		cb = Chain(cb, c.cfg.Observe(c, id))
	}
	return cb
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
// the new incarnation is seen, and halted, afresh. Only direct-datagram
// clusters (TransportH <= 1) support rejoin.
func (c *Cluster) Rejoin(i mid.ProcID) error {
	if int(i) >= c.cfg.N || i < 0 {
		return fmt.Errorf("core: rejoin of process %d outside group of %d", i, c.cfg.N)
	}
	if c.cfg.TransportH > 1 {
		return fmt.Errorf("core: rejoin is unsupported with interposed transport entities")
	}
	cfg := c.cfg.Config
	cfg.Join = true
	p, err := NewProcess(i, cfg, c.Net().Endpoint(i), c.callbacks(i))
	if err != nil {
		return err
	}
	c.Attach(i, p)
	delete(c.Left, i)
	c.crashSeen[i] = false
	return nil
}

// TransportEntity returns process i's transport entity, or nil when the
// cluster runs directly on datagrams (TransportH <= 1).
func (c *Cluster) TransportEntity(i mid.ProcID) *transport.Entity { return c.ents[i] }

// Active reports whether process p is still executing the protocol: not
// fail-stopped by the failure model and not self-excluded.
func (c *Cluster) Active(p mid.ProcID) bool {
	return !c.Crashed(p) && c.Proc(p).Running()
}

// ActiveSet returns the identifiers of the active processes.
func (c *Cluster) ActiveSet() []mid.ProcID {
	var out []mid.ProcID
	for i := 0; i < c.N(); i++ {
		if c.Active(mid.ProcID(i)) {
			out = append(out, mid.ProcID(i))
		}
	}
	return out
}

// Submit queues a user message at process p (Process.Submit). Its
// generation instant and labels reach Delay and the Checker through
// OnGenerate.
func (c *Cluster) Submit(p mid.ProcID, payload []byte, deps mid.DepList) (mid.MID, error) {
	return c.Proc(p).Submit(payload, deps)
}

// SubmitCausal is Submit with the conservative depend-on-everything-seen
// labelling (Process.SubmitCausal).
func (c *Cluster) SubmitCausal(p mid.ProcID, payload []byte) (mid.MID, error) {
	return c.Proc(p).SubmitCausal(payload)
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
	res := RunResult{QuiescentAtRound: -1}
	drainLeft := -1
	before := func(round int) {
		res.Rounds = round + 1
		if opts.OnRound != nil {
			opts.OnRound(round)
		}
		if ck := c.cfg.Checker; ck != nil {
			for i, seen := range c.crashSeen {
				if p := mid.ProcID(i); !seen && c.Crashed(p) {
					c.crashSeen[i] = true
					ck.Halt(p)
				}
			}
		}
		c.sample()
	}
	after := func(round int) bool {
		if !opts.StopWhenQuiescent || round%2 == 0 || round < opts.MinRounds {
			return true
		}
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
		return true
	}
	if err := c.Rounds(opts.MaxRounds, before, after); err != nil {
		return RunResult{}, err
	}
	res.End = c.Engine().Now()
	return res, nil
}

// Check judges the run so far against Definition 3.2: the Checker's Check
// over the processes whose current incarnation neither crashed nor left. The
// cluster must have been built with a Checker.
func (c *Cluster) Check() []faultrt.Violation {
	var survivors []mid.ProcID
	for i, crashed := range c.crashSeen {
		if _, left := c.Left[mid.ProcID(i)]; !crashed && !left {
			survivors = append(survivors, mid.ProcID(i))
		}
	}
	return c.cfg.Checker.Check(survivors)
}

// Quiescent reports whether every active process has fully drained: no
// queued submissions, no waiting messages, and identical processed vectors.
func (c *Cluster) Quiescent() bool {
	var ref mid.SeqVector
	for i := 0; i < c.N(); i++ {
		if !c.Active(mid.ProcID(i)) {
			continue
		}
		p := c.Proc(mid.ProcID(i))
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
	for i := 0; i < c.N(); i++ {
		if !c.Active(mid.ProcID(i)) {
			continue
		}
		p := c.Proc(mid.ProcID(i))
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
	now := c.Engine().Now()
	c.HistMax.Add(now, float64(maxH))
	c.HistMean.Add(now, float64(sumH)/float64(live))
	c.WaitMax.Add(now, float64(maxW))
}
