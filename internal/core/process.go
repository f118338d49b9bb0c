// Package core implements the urcgc algorithm of Aiello, Pagani and Rossi
// (SIGCOMM 1993): uniform reliable causal group communication built around a
// rotating coordinator, history buffers and the reliable circulation of
// decisions.
//
// Time advances in rounds; a subrun is two rounds. Within a subrun every
// process may broadcast up to BatchMax new user messages (classically one) —
// each of which it also processes immediately — at the subrun's opening or,
// through Flush, as they are submitted. At the opening it also sends a
// REQUEST to the subrun's coordinator carrying its last-processed vector,
// its oldest-waiting vector, and the freshest DECISION it holds. In the
// second round the coordinator folds the requests it received into a new
// DECISION — message stability (history cleaning), per-sequence
// most-updated holders for recovery, silence counters whose saturation at K
// declares crashes, and orphaned-sequence gaps whose dependents the group
// agrees to destroy — and broadcasts it.
// Decisions chain across coordinators, so crash recovery is embedded in
// normal processing: nothing ever blocks, which is the paper's headline
// property.
//
// The rounds are a bound, not a pace. StartRound alone — the simulator, the
// experiments, Cluster — runs the paper's lockstep schedule. A live runtime
// also calls Advance after every event, and then arrivals pace agreement: a
// coordinator decides as soon as every believed-alive member has reported,
// and a member in step opens the next subrun, numbered (T, k) inside the
// clock's subrun T, as soon as it holds the decision and has work. Fault
// detection — the silence counters, coordinator silence and the R rule —
// stays on the clock's subruns, so its bounds are the paper's.
//
// Dynamic membership rides the same machinery: a (re)starting member
// solicits a live sponsor for a state transfer (JOIN/JOIN-STATE), installs
// the group's stability watermark as its past, catches up through the
// recovery path, and re-enters the view when a coordinator folds its
// join-flagged REQUEST into a decision — turning the suicide rule from
// terminal death into leave, resync, rejoin.
//
// Section 5's architecture maps onto this package and its host. The urcgc
// layer divides into the Group Control sublayer — the urcgc entity running
// the agreement protocol — and the Group Message Transfer sublayer —
// message processing, history storage and recovery; both are a Process,
// with internal/transport supplying the t-SAP service when h > 1. The
// service its users see through their urcgc SAPs is three primitives, the
// methods of a live rt.Member: Send is urcgc-data.Rq, returning with the
// urcgc-data.Conf once the local entity has processed the message, and
// Indications is the urcgc-data.Ind stream of every processed message, in
// causal order.
package core

import (
	"errors"
	"fmt"
	"math"

	"urcgc/internal/causal"
	"urcgc/internal/group"
	"urcgc/internal/history"
	"urcgc/internal/mid"
	"urcgc/internal/waitlist"
	"urcgc/internal/wire"
)

// Config carries the protocol parameters of one group.
type Config struct {
	// N is the group cardinality.
	N int
	// K is the number of retries before a silent process is declared
	// crashed, and before a process that hears no coordinator leaves. At
	// most 255: decisions carry the silence counters in one byte each.
	K int
	// R is the number of unsuccessful recovery attempts after which a
	// process autonomously leaves the group. The paper requires R > 2K+f
	// for no live process to be evicted while chasing a crashed
	// most-updated holder; Validate enforces R > 2K as the f=0 baseline.
	R int
	// HistoryThreshold is the distributed flow-control threshold of
	// Section 6: a process whose history holds at least this many messages
	// defers generating new ones. Zero disables flow control. The paper
	// uses 8n.
	HistoryThreshold int
	// ThresholdPerAlive, when positive, overrides HistoryThreshold with a
	// view-scaled budget: generation defers while the history holds at
	// least ThresholdPerAlive times the number of believed-alive members.
	// The paper's 8n rule is really about the live group — stability spans
	// only the members the chain must cover — so after crashes (and before
	// rejoins) a fixed 8N both under- and over-throttles. 8 reproduces the
	// paper's setting against the live view.
	ThresholdPerAlive int
	// BatchMax caps how many queued user messages one subrun may
	// broadcast. Zero or one keeps the classic one-Data-per-subrun
	// schedule; larger values drain up to BatchMax messages per subrun as
	// DataBatch frames, amortizing the subrun's control traffic
	// (REQUEST/DECISION) over the whole batch the same way Table 1
	// amortizes it over a subrun.
	BatchMax int
	// SelfExclusion enables the two autonomous-leave rules (suicide is
	// always on): leaving after R failed recoveries and after K subruns
	// without hearing any believed-alive coordinator. Experiments that
	// model more consecutive coordinator crashes than K disable it.
	SelfExclusion bool
	// Join starts the process as a joiner instead of a founding member: it
	// solicits a live sponsor for a state transfer (the group's stability
	// watermark becomes its installed past), then enters the view through
	// the regular decision circulation by flagging its requests. Until a
	// decision admits it, it never coordinates, never generates messages
	// and never self-excludes. This is how a member that committed suicide
	// returns: leave, resync, rejoin.
	Join bool
	// Observers marks diffusion-group members (Section 3): an observer
	// processes every message and reports to coordinators — so stability
	// waits for it and atomicity covers it — but it never generates
	// messages and never becomes coordinator. Nil means a pure peer group.
	Observers []bool
}

// IsObserver reports whether member i is an observer.
func (c Config) IsObserver(i mid.ProcID) bool {
	return i >= 0 && int(i) < len(c.Observers) && c.Observers[i]
}

// DefaultRecoveryBatch caps how many messages of one sequence a single
// RECOVER asks for.
const DefaultRecoveryBatch = 16

// DefaultBatchBytes is the encoded-size budget of one DataBatch frame: a
// drained batch is split into frames no larger than this, so batching never
// manufactures oversize datagrams. It fits a 64 KiB UDP datagram with
// headroom for the runtime's framing.
const DefaultBatchBytes = 60 * 1024

// DefaultBatchMax is the per-subrun drain the runtime adopts when its
// coalescing sender is enabled without an explicit BatchMax.
const DefaultBatchMax = 32

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: N = %d, need at least 1", c.N)
	}
	if c.K < 1 || c.K > math.MaxUint8 {
		return fmt.Errorf("core: K = %d outside [1, %d]: a decision carries each silence counter in one byte", c.K, math.MaxUint8)
	}
	if c.R < 1 {
		return fmt.Errorf("core: R = %d, need at least 1", c.R)
	}
	if c.SelfExclusion && c.R <= 2*c.K {
		return fmt.Errorf("core: R = %d must exceed 2K = %d (paper: R > 2K+f)", c.R, 2*c.K)
	}
	if c.HistoryThreshold < 0 || c.ThresholdPerAlive < 0 || c.BatchMax < 0 {
		return fmt.Errorf("core: negative threshold")
	}
	if c.Join && c.N < 2 {
		return fmt.Errorf("core: a joiner needs at least one live sponsor (N >= 2)")
	}
	if c.Observers != nil {
		if len(c.Observers) != c.N {
			return fmt.Errorf("core: %d observer flags for group of %d", len(c.Observers), c.N)
		}
		peers := 0
		for _, o := range c.Observers {
			if !o {
				peers++
			}
		}
		if peers == 0 {
			return fmt.Errorf("core: a diffusion group needs at least one non-observer")
		}
	}
	return nil
}

func (c Config) batchMax() int {
	if c.BatchMax > 1 {
		return c.BatchMax
	}
	return 1
}

// LeaveReason says why a process halted.
type LeaveReason int

// Leave reasons.
const (
	// Suicide: the process found itself declared crashed in a decision
	// (it is alive but faulty — e.g. its sends are being omitted) and
	// removed itself, as the protocol requires.
	Suicide LeaveReason = iota
	// RecoveryExhausted: R consecutive recovery attempts made no progress.
	RecoveryExhausted
	// CoordinatorSilence: no decision was received from K consecutive
	// believed-alive coordinators.
	CoordinatorSilence
)

// String implements fmt.Stringer.
func (r LeaveReason) String() string {
	switch r {
	case Suicide:
		return "suicide"
	case RecoveryExhausted:
		return "recovery-exhausted"
	case CoordinatorSilence:
		return "coordinator-silence"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Transport is how a process reaches its peers. Send to self is never
// issued. Broadcast must reach every other process in the group — including
// ones believed crashed, which may be alive-but-faulty and must be able to
// learn they were excluded.
//
// The PDU is lent for the call, the way io.Writer lends its buffer: the
// process builds Requests, Data frames and Decisions in records it owns and
// rewrites them for the next send, so an implementation must be done with the
// PDU when it returns — marshal it, as every live transport does, or
// wire.Clone it, as the simulator's adapter does — and must not write to it.
type Transport interface {
	Send(dst mid.ProcID, pdu wire.PDU)
	Broadcast(pdu wire.PDU)
}

// Callbacks surface protocol events to the embedding runtime, at the instant
// they happen: what a per-message observer needs — lifecycle spans, the
// Definition 3.2 oracle, confirms, indications, a leave. Counts and gauges
// are not hooked: every one of them is in Stats or an accessor, read by the
// host when it likes. Any field may be nil. Every callback runs synchronously
// on the goroutine driving the process; the simulator path leaves the
// observability fields nil and is untouched by them.
type Callbacks struct {
	// OnGenerate is invoked when Submit accepts a user message, before it
	// is queued for its broadcast round — the "generated" lifecycle stage.
	OnGenerate func(m *causal.Message)
	// OnBroadcast is invoked when a queued user message actually leaves
	// the outbox onto the wire (broadcast may lag generation by rounds:
	// at most BatchMax per subrun, deferred further by flow control).
	OnBroadcast func(m *causal.Message)
	// OnWait is invoked when a received message parks in the waiting list
	// because its causal dependencies are not yet satisfied. missing
	// lists the unmet dependencies; it is backed by a scratch buffer
	// reused across calls, so the callee must clone it to retain it.
	OnWait func(m *causal.Message, missing mid.DepList)
	// OnStable is invoked when a full-group decision advances the local
	// stability watermark: every message (q, s) with s <= clean[q] is now
	// uniformly stable (processed at every covered live member). clean is
	// the process's own watermark vector, valid (and read-only) for the call:
	// a callee that keeps it clones it.
	OnStable func(clean mid.SeqVector)
	// OnProcess is invoked exactly once per message this process
	// processes, in processing (causal) order.
	OnProcess func(m *causal.Message)
	// OnDiscard is invoked when a waiting message is destroyed by the
	// group's orphaned-sequence agreement.
	OnDiscard func(m *causal.Message)
	// OnLeave is invoked once when the process halts itself.
	OnLeave func(reason LeaveReason)
	// OnDecision is invoked for every fresh decision applied. d is a record
	// the process owns and will overwrite a few decisions later: valid (and
	// read-only) for the call, cloned by a callee that keeps it.
	OnDecision func(d *wire.Decision)
	// OnJoinInstalled is invoked on a joiner when the sponsor's state
	// transfer is installed, before any message is processed: stable is the
	// stability watermark the process starts from (everything at or below
	// it is uniformly stable and will never be processed here). The callee
	// owns stable.
	OnJoinInstalled func(stable mid.SeqVector)
	// OnJoined is invoked on a joiner when a decision admits it into the
	// view and it resumes full protocol duty.
	OnJoined func()
	// OnFastForward is invoked when a recovery answer proves a prefix of
	// q's sequence was compacted as uniformly stable (nobody retains the
	// bytes) and the process skips its frontier to "to" instead of waiting
	// forever — without per-message OnProcess calls. Only a joiner syncing
	// against a moving stability watermark hits this path.
	OnFastForward func(q mid.ProcID, to mid.Seq)
}

// Process is one urcgc protocol entity. It is driven by StartRound and
// Recv from a single goroutine (the simulator loop or the runtime's node
// goroutine); it is not safe for concurrent use.
//
// Concurrency contract: EVERY method — including the read accessors
// Running, View, HistoryLen, History, WaitingLen, Processed and
// PendingSubmissions, and reads of the exported Stats field — must run on
// the goroutine that drives StartRound/Recv. Calling them from any other
// goroutine races with applyDecision and cascade mutating the same state.
// In the live runtime that goroutine is the node loop: off-loop readers go
// through rt.Node.Snapshot/Status or rt.UDPNode.Snapshot/Status, which
// hand the Process to a closure inside the loop. The deterministic
// simulator is single-goroutine, so tests and experiments that call
// accessors between Run steps are within the contract.
type Process struct {
	id  mid.ProcID
	cfg Config
	cb  Callbacks
	tp  Transport

	tracker *causal.Tracker
	hist    *history.History
	wait    *waitlist.List
	view    *group.View

	running bool
	nextSeq mid.Seq
	outbox  []*causal.Message // user messages awaiting the subrun budget and the valve
	taken   []*causal.Message // broadcastOutbox's scratch: the messages of the drain in progress
	// arena is where the messages this process generates are carved: their
	// records and label lists (DESIGN.md §7 rule 6). It takes one header per
	// message, so its chunks stop at 16 KiB (292 headers): 64 KiB ones would
	// save under three chunk allocations per thousand messages and pin four
	// times the memory while the history holds them.
	arena wire.Arena

	// The PDUs this process sends every subrun are built in place, in records
	// it owns, and lent to the transport for the call (see Transport): its
	// REQUEST, the one Data or DataBatch frame in flight, and its decisions.
	req   wire.Request
	data  wire.Data
	batch wire.DataBatch
	// decs are the three decision records everything held or built lives in,
	// rotated by pointer: lastDec, reqPrev, and a spare — the one a received
	// decision is copied into, or computeDecision fills — so outside
	// computeDecision one is always free (spareDec).
	decs    [3]*wire.Decision
	lastDec *wire.Decision // freshest decision held, nil before the first
	// reqPrev is the freshest decision embedded in the requests folded this
	// subrun, kept only while it is fresher than lastDec: what computeDecision
	// continues from without this process ever having adopted it. reqPrevFrom
	// is the sender it came with (the lowest wins a tie, as a walk over the
	// table in sender order would have it).
	reqPrev     *wire.Decision
	reqPrevFrom mid.ProcID

	// reports is this subrun's request table: one value slot per sender,
	// heard its present mask (and the coordinator's who-reported input to the
	// silence counters). A REQUEST is copied into its sender's slot — Recv
	// keeps nothing of a control PDU. early holds the requests that name a
	// subrun this process may open next — (T, k+1) or (T+1, 0): a peer whose
	// tick or decision ran before ours — and openReports moves them in when
	// this process coordinates it. Built at the first early request; the
	// simulator never delivers one.
	reports  []report
	heard    []bool
	early    *earlyReports
	attempts *group.Attempts // the coordinator's silence counters being folded

	// sendLeft is what remains of this subrun's message budget (BatchMax,
	// classically one): reset at every subrun open, drawn down by
	// broadcastOutbox. It is what lets Flush send mid-subrun without a
	// subrun ever carrying more than BatchMax of this process's messages.
	sendLeft int

	subrun            int64 // current subrun: (T, k) packed as T | k<<earlyShift
	missedCoords      int   // consecutive clock subruns with no decision from a believed-alive coordinator
	decisionThisSub   bool  // a decision for the current subrun arrived (or the join admitted us)
	decided           bool  // this process decided the current subrun: one decision per subrun
	recoveryFailures  int
	lastProgress      uint64 // processed-sum at the last decision, for the R rule
	appliedSubrun     int64  // subrun of the last decision applied, for DecisionSubrun
	recoveryRequested bool

	// The health facts, in clock subruns (see TokenSubrun, WaitingSince,
	// StableSubrun and Declared): set where the decision and waitlist paths
	// change what they describe, restarted when a joiner is admitted.
	tokenSubrun, waitingSince, stableSubrun int64
	declared                                mid.ProcID
	declaredAt                              int64

	// Join-protocol state. A founding member is born synced and never
	// joining. A joiner stays joining until a decision admits it; synced
	// flips when the sponsor's state transfer is installed; joinAligning
	// keeps nextSeq chasing MaxProcessed[self] until the first post-join
	// Submit, so the new incarnation resumes its sequence past everything
	// any member holds of the old one.
	joining      bool
	synced       bool
	joinAligning bool
	// subrunBias aligns the local round clock to the group's subrun
	// numbering: a restarted member's rounds restart at zero, but its
	// requests must name the subrun its peers are in to be folded.
	subrunBias int64

	// missScratch backs the missing-dependency list handed to OnWait, so
	// steady-state tracing costs no allocation per waiting message.
	missScratch mid.DepList

	// lastClean retains the stability watermark of the freshest full-group
	// decision applied, for the StableTo accessor (health and status
	// reporting). Preallocated; copied into, never re-allocated.
	lastClean mid.SeqVector

	// Counters for reports and tests.
	Stats Stats
}

// Stats counts externally observable protocol activity.
type Stats struct {
	Generated   int // user messages this process originated
	ProcessedN  int // messages processed (own and others')
	Discarded   int // messages destroyed by agreement
	Recoveries  int // RECOVER PDUs sent
	Retransmits int // RETRANSMIT PDUs answered
	Decisions   int // decisions computed as coordinator
	Duplicates  int // duplicate or stale DATA received
	// Malformed counts received PDUs dropped at the protocol boundary for
	// naming a process outside the group (or failing Message.Validate): any
	// bytes a socket can deliver decode to something, and this is where the
	// something that is not of this group stops.
	Malformed int
	Batches   int // multi-message DataBatch frames broadcast
	// EagerBroadcasts counts the flushes that broadcast — drains at submit
	// time, mid-subrun, from what the subrun's budget had left — instead of
	// at the subrun's opening tick. A subrun may hold several.
	EagerBroadcasts int
	// Subruns counts the subruns this process opened and reported in, the
	// clock's and Advance's: the local token-pass events of the rotating
	// coordinator. A joiner counts none before the state transfer installs.
	Subruns int
	// EarlySubruns counts the subruns Advance opened between the clock's:
	// zero wherever only StartRound drives the process.
	EarlySubruns int
	// ViewChanges counts the changes of the local view's composition:
	// members declared crashed (by this process as coordinator, or adopted
	// from a decision), or a joiner admitted back. One decision's worth of
	// changes is one view change.
	ViewChanges int
	// CrashDeclarations counts the members this process's view moved from
	// believed-alive to declared-crashed, whoever made the declaration.
	CrashDeclarations int
	// DecisionsApplied counts the fresh decisions this process adopted, its
	// own and received ones: one per OnDecision call.
	DecisionsApplied int

	Sponsored    int // JOIN-STATE transfers served to joiners
	FastForwards int // compacted recovery gaps skipped while syncing
	Joins        int // admissions of this joiner into the view: one per OnJoined call
}

// NewProcess returns a protocol entity for process id. The transport must
// be non-nil; callbacks may be zero.
func NewProcess(id mid.ProcID, cfg Config, tp Transport, cb Callbacks) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(id) >= cfg.N || id < 0 {
		return nil, fmt.Errorf("core: process id %d outside group of %d", id, cfg.N)
	}
	if tp == nil {
		return nil, fmt.Errorf("core: nil transport")
	}
	n := cfg.N
	p := &Process{
		id:        id,
		cfg:       cfg,
		cb:        cb,
		tp:        tp,
		tracker:   causal.NewTracker(n),
		hist:      history.New(n),
		wait:      waitlist.New(n),
		arena:     wire.Arena{Cap: 16 << 10},
		view:      group.NewView(n),
		running:   true,
		sendLeft:  cfg.batchMax(),
		joining:   cfg.Join,
		synced:    !cfg.Join,
		reports:   newReports(n),
		heard:     make([]bool, n),
		attempts:  group.NewAttempts(n, cfg.K),
		lastClean: mid.NewSeqVector(n),
		declared:  mid.None,
	}
	vecs := mid.NewSeqVector(2 * n)
	p.req = wire.Request{LastProcessed: vecs[:n:n], Waiting: vecs[n:]}
	for i := range p.decs {
		p.decs[i] = wire.NewDecision(n)
	}
	return p, nil
}

// report is one member's REQUEST as the coordinator keeps it: the two vectors
// and the join flag, copied out of the PDU.
type report struct {
	lastProcessed, waiting mid.SeqVector
	join                   bool
}

// newReports returns n empty slots whose vectors share one allocation.
func newReports(n int) []report {
	vecs := mid.NewSeqVector(2 * n * n)
	rs := make([]report, n)
	for i := range rs {
		rs[i].lastProcessed, vecs = vecs[:n:n], vecs[n:]
		rs[i].waiting, vecs = vecs[:n:n], vecs[n:]
	}
	return rs
}

func (r *report) set(v *wire.Request) {
	copy(r.lastProcessed, v.LastProcessed)
	copy(r.waiting, v.Waiting)
	r.join = v.Join
}

// earlyReports is the request table's row for the subrun after the current
// one.
type earlyReports struct {
	subrun  int64 // the subrun the held requests name
	reports []report
	heard   []bool
}

// ID returns the process identifier.
func (p *Process) ID() mid.ProcID { return p.id }

// Running reports whether the process is still executing the protocol.
// Loop-goroutine-only, like every accessor (see the concurrency contract).
func (p *Process) Running() bool { return p.running }

// Joining reports whether the process is still in the join protocol — not
// yet admitted into the view by a decision. Loop-goroutine-only.
func (p *Process) Joining() bool { return p.joining }

// View returns the process's local group view. Loop-goroutine-only, and
// the returned pointer must not be retained past the calling closure.
func (p *Process) View() *group.View { return p.view }

// HistoryLen returns the current history buffer length (Figure 6).
// Loop-goroutine-only.
func (p *Process) HistoryLen() int { return p.hist.Len() }

// History exposes the history buffer for read access (recovery answers and
// the client-server reply layer read processed messages from it). Callers
// must not mutate it. Loop-goroutine-only.
func (p *Process) History() *history.History { return p.hist }

// WaitingLen returns the current waiting-list length. Loop-goroutine-only.
func (p *Process) WaitingLen() int { return p.wait.Len() }

// Processed returns the last-processed vector. Callers must not modify it,
// and must Clone it before letting it escape the loop goroutine.
func (p *Process) Processed() mid.SeqVector { return p.tracker.Processed() }

// PendingSubmissions returns the number of user messages queued but not yet
// broadcast (they wait for their round or for flow control).
// Loop-goroutine-only.
func (p *Process) PendingSubmissions() int { return len(p.outbox) }

// Subrun returns the number of the current subrun, (T, k) packed as
// SplitSubrun reads it; T alone wherever only StartRound drives the process.
// Loop-goroutine-only.
func (p *Process) Subrun() int64 { return p.subrun }

// DecisionSubrun returns the subrun of the last decision this process
// applied, packed as Subrun is; 0 before the first. Loop-goroutine-only.
func (p *Process) DecisionSubrun() int64 { return p.appliedSubrun }

// TokenSubrun returns the clock subrun of the last decision that reached this
// process from the circulation: another coordinator's, or its own while no
// other member of its view can coordinate. Loop-goroutine-only.
func (p *Process) TokenSubrun() int64 { return p.tokenSubrun }

// WaitingSince returns the clock subrun since which the waiting list has been
// non-empty; meaningless while it is empty. Loop-goroutine-only.
func (p *Process) WaitingSince() int64 { return p.waitingSince }

// StableSubrun returns the clock subrun of the last stability advance: the
// last full-group decision whose watermark cleaned history.
// Loop-goroutine-only.
func (p *Process) StableSubrun() int64 { return p.stableSubrun }

// Declared returns the member this process last saw declared crashed and the
// clock subrun its view adopted the declaration in; mid.None before any.
// Loop-goroutine-only.
func (p *Process) Declared() (q mid.ProcID, at int64) { return p.declared, p.declaredAt }

// clock returns the clock subrun this process is in.
func (p *Process) clock() int64 { t, _ := SplitSubrun(p.subrun); return t }

// CurrentCoordinator returns the coordinator of the current subrun under
// this process's view. Loop-goroutine-only.
func (p *Process) CurrentCoordinator() mid.ProcID { return p.coordinator(p.subrun) }

// StableTo returns the stability watermark of the freshest full-group
// decision applied: every (q, s) with s <= StableTo()[q] is uniformly
// stable. All-zero until the first full-group decision. Callers must not
// modify it, and must Clone it before letting it escape the loop
// goroutine.
func (p *Process) StableTo() mid.SeqVector { return p.lastClean }

// Submit queues a user message. Its causal dependencies are the explicit
// deps given (each must already be processed locally — a process can only
// causally relate messages it has seen, Definition 3.1) plus, implicitly,
// the sender's previous message. The message leaves as soon as flow control
// and the per-subrun budget of BatchMax messages allow: at once if the
// caller follows up with Flush while this subrun's budget is not yet spent,
// else at the opening of a later subrun. The assigned MID is returned.
func (p *Process) Submit(payload []byte, deps mid.DepList) (mid.MID, error) {
	if err := p.admit(payload, deps); err != nil {
		return mid.MID{}, err
	}
	own := p.arena.Labels(len(deps))
	copy(own, deps)
	return p.enqueue(payload, own.Canonical()), nil
}

// admit checks that the process may generate a message now and that payload
// and deps are ones it can carry.
func (p *Process) admit(payload []byte, deps mid.DepList) error {
	if !p.running {
		return fmt.Errorf("core: process %d has left the group", p.id)
	}
	if p.joining {
		return fmt.Errorf("core: process %d is still joining", p.id)
	}
	if p.joinAligning {
		// Post-admission, the own sequence must catch up first: other
		// members may hold messages of the previous incarnation up to
		// nextSeq, and generating before processing them would fork the
		// sequence at duplicate numbers.
		if have := p.tracker.LastProcessed(p.id); have < p.nextSeq {
			return fmt.Errorf("core: process %d is resyncing its own sequence (%d of %d)", p.id, have, p.nextSeq)
		}
		p.joinAligning = false
	}
	if p.cfg.IsObserver(p.id) {
		return fmt.Errorf("core: observer %d cannot generate messages", p.id)
	}
	// Reject here, at the protocol boundary, anything the 16-bit wire
	// prefixes cannot carry — before the encoder could wrap it silently.
	if len(payload) > wire.MaxPayload {
		return fmt.Errorf("core: payload of %d bytes: %w", len(payload), wire.ErrTooLarge)
	}
	if len(deps) > wire.MaxDeps {
		return fmt.Errorf("core: %d dependencies: %w", len(deps), wire.ErrTooLarge)
	}
	for _, d := range deps {
		if d.IsZero() {
			return fmt.Errorf("core: zero dependency")
		}
		if d.Proc == p.id {
			return fmt.Errorf("core: own-sequence dependencies are implicit")
		}
		if p.tracker.LastProcessed(d.Proc) < d.Seq {
			return fmt.Errorf("core: dependency %v not processed locally", d)
		}
	}
	return nil
}

// enqueue gives the admitted message its MID and queues it. deps is the
// message's own list from here on: canonical, and never written again.
func (p *Process) enqueue(payload []byte, deps mid.DepList) mid.MID {
	p.nextSeq++
	m := p.arena.Message(len(payload) + 8*len(deps))
	m.ID, m.Deps, m.Payload = mid.MID{Proc: p.id, Seq: p.nextSeq}, deps, payload
	p.outbox = append(p.outbox, m)
	if p.cb.OnGenerate != nil {
		p.cb.OnGenerate(m)
	}
	return m.ID
}

// SubmitCausal queues a user message depending on the latest message this
// process has processed from every other live sequence — the conservative
// temporal interpretation of causality (what CBCAST enforces implicitly).
//
// The label list is built once, at its final size and in canonical order (one
// label per sequence, by ProcID), and becomes the message's own.
func (p *Process) SubmitCausal(payload []byte) (mid.MID, error) {
	if err := p.admit(payload, nil); err != nil {
		return mid.MID{}, err
	}
	processed := p.tracker.Processed()
	labels := 0
	for q, s := range processed {
		if s > 0 && mid.ProcID(q) != p.id {
			labels++
		}
	}
	deps := p.arena.Labels(labels)[:0]
	for q, s := range processed {
		if s > 0 && mid.ProcID(q) != p.id {
			deps = append(deps, mid.MID{Proc: mid.ProcID(q), Seq: s})
		}
	}
	return p.enqueue(payload, deps), nil
}

// CoordinatorOf returns the coordinator of subrun s under view v: the first
// believed-alive process at or cyclically after (T+k) mod n, for s = (T, k)
// (see SplitSubrun). If the view is empty it falls back to (T+k) mod n.
func CoordinatorOf(s int64, v *group.View) mid.ProcID {
	return coordinatorOf(s, v, nil)
}

// coordinatorOf additionally skips observer members (diffusion groups):
// only peers rotate through the coordinator role.
func coordinatorOf(s int64, v *group.View, observers []bool) mid.ProcID {
	n := int64(v.N())
	t, k := SplitSubrun(s)
	start := mid.ProcID((t + k) % n)
	for i := int64(0); i < n; i++ {
		c := mid.ProcID((int64(start) + i) % n)
		if int(c) < len(observers) && observers[c] {
			continue
		}
		if v.Alive(c) {
			return c
		}
	}
	return start
}

// coordinator returns the coordinator of subrun s from this process's view.
func (p *Process) coordinator(s int64) mid.ProcID {
	return coordinatorOf(s, p.view, p.cfg.Observers)
}

// StartRound drives the process at the beginning of global round r. Even
// rounds open a subrun (request phase); odd rounds are the decision phase.
func (p *Process) StartRound(r int) {
	if !p.running {
		return
	}
	if r%2 == 0 {
		p.startSubrun(int64(r/2) + p.subrunBias)
	} else {
		p.decisionPhase()
	}
}

// startSubrun opens clock subrun s, (s, 0), from whatever subrun of the
// previous period this process is in.
func (p *Process) startSubrun(s int64) {
	// Close the books on the previous subrun: did its coordinator reach us?
	// A joiner expects nothing yet and counts no silence.
	if s > 0 && !p.joining {
		p.accountCoordinatorSilence(s - 1)
		if !p.running {
			return // the silence rule made us leave
		}
	}
	p.openSubrun(s)
}

// openSubrun is the opening every subrun shares, the clock's and Advance's:
// a fresh budget and request table, the queued messages the budget and the
// valve let out, and the REQUEST to the subrun's coordinator.
func (p *Process) openSubrun(s int64) {
	p.subrun = s
	p.decisionThisSub = false
	p.decided = false
	p.sendLeft = p.cfg.batchMax()
	p.openReports(s)

	if p.joining {
		p.joinSubrun(s)
		return
	}

	// Broadcast queued user messages, unless flow control defers: at most
	// BatchMax per subrun (classically one), split into byte-budgeted
	// DataBatch frames when more than one leaves at once. Whatever of the
	// budget an empty or short outbox or a closed valve leaves unspent is
	// there for Flush.
	if p.canSend() {
		p.broadcastOutbox()
	}

	// Send the REQUEST to the subrun's coordinator.
	p.Stats.Subruns++
	coord := p.coordinator(s)
	if coord == p.id {
		p.reportSelf()
	} else {
		p.tp.Send(coord, p.buildRequest(s, false))
	}
}

// openReports empties the request table for subrun s. The requests that
// arrived for s while this process was still in the subrun before — their
// senders' ticks or decisions ran first, which a free-running clock and
// arrival pacing make routine — become the table when this process
// coordinates s: thrown away, as they used to be, they count their senders
// silent, and K such subruns in a row declare a healthy member crashed. A row
// that names a subrun still ahead of s — the next clock subrun, while this
// process opens an early one — is kept for it.
func (p *Process) openReports(s int64) {
	p.reqPrev = nil
	if e := p.early; e != nil {
		if e.subrun == s && p.coordinator(s) == p.id {
			p.reports, e.reports = e.reports, p.reports
			p.heard, e.heard = e.heard, p.heard
			clear(e.heard)
			return
		}
		if !laterSubrun(e.subrun, s) {
			clear(e.heard)
		}
	}
	clear(p.heard)
}

// joinSubrun is a joiner's request phase. Before the state transfer it only
// solicits a sponsor — it can process nothing until history bases and the
// processed vector are installed. After it, it reports like any member,
// flagging the request so the coordinator re-admits it, but it never acts
// as coordinator and never generates messages.
func (p *Process) joinSubrun(s int64) {
	if !p.synced {
		p.tp.Send(p.sponsorCandidate(s), &wire.Join{Joiner: p.id})
		return
	}
	p.Stats.Subruns++
	coord := p.coordinator(s)
	if coord == p.id {
		// Our (stale) view rotated the token onto us, but nobody treats a
		// joiner as coordinator before a decision admits it; hold the
		// report and try the next rotation.
		return
	}
	p.tp.Send(coord, p.buildRequest(s, true))
}

// sponsorCandidate rotates the state-transfer solicitation over the other
// members, so a joiner is never stuck soliciting a crashed sponsor.
func (p *Process) sponsorCandidate(s int64) mid.ProcID {
	n := int64(p.cfg.N)
	c := mid.ProcID(s % n)
	if c == p.id {
		c = mid.ProcID((s + 1) % n)
	}
	return c
}

// batchFrameOverhead is a DataBatch frame's kind(1) + count(2).
const batchFrameOverhead = 3

// msgBodySize is one message's encoded body: mid(8) + depCount(2) +
// deps(8 each) + payloadLen(2) + payload.
func msgBodySize(m *causal.Message) int {
	return 8 + 2 + 8*len(m.Deps) + 2 + len(m.Payload)
}

// canSend reports whether there is something to send and the Section 6
// flow-control valve (HistoryThreshold, or ThresholdPerAlive against the
// live view) lets it out.
func (p *Process) canSend() bool {
	if len(p.outbox) == 0 {
		return false
	}
	threshold := p.cfg.HistoryThreshold
	if p.cfg.ThresholdPerAlive > 0 {
		threshold = p.cfg.ThresholdPerAlive * p.view.AliveCount()
	}
	return threshold == 0 || p.hist.Len() < threshold
}

// Flush broadcasts queued messages now instead of at the next tick, from
// what is left of this subrun's message budget: it sends if some of the
// budget is left, something is queued, the flow-control valve is open, and
// the process is a running, admitted member. It reports whether it
// broadcast. The rule is BatchMax messages per subrun, spent as soon as
// there is something to send — at the subrun's opening, then by as many
// flushes as it takes — so n*BatchMax per subrun and the flow-control valve
// are exactly the opening's; a message past the budget waits for the next
// opening, Advance's or the tick's.
//
// Nothing in the protocol ties DATA to a round — Data/DataBatch carry no
// subrun number and handleData ignores the receiver's — so a mid-subrun
// broadcast is just an early datagram under the general-omission model. Only
// the live runtimes call Flush, after registering the submitter's confirm
// waiter; the simulator and Cluster never do and stay lockstep.
func (p *Process) Flush() bool {
	if p.sendLeft == 0 || !p.running || p.joining || !p.canSend() {
		return false
	}
	p.Stats.EagerBroadcasts++
	p.broadcastOutbox()
	return true
}

// broadcastOutbox spends the subrun's budget: it drains as many queued
// messages onto the wire as the budget has left. A single message travels as
// classic Data (wire-compatible with unbatched peers); a larger drain is
// split greedily into DataBatch frames whose encoded size stays within
// DefaultBatchBytes. Each broadcast message is also processed locally,
// exactly as the unbatched path did.
func (p *Process) broadcastOutbox() {
	take := min(p.sendLeft, len(p.outbox))
	p.sendLeft -= take
	// The drained messages move to scratch and the rest of the queue slides to
	// the front of its array, so a steady stream of submissions reuses one
	// backing array instead of walking off its end every few subruns.
	taken := append(p.taken[:0], p.outbox[:take]...)
	rest := copy(p.outbox, p.outbox[take:])
	clear(p.outbox[rest:])
	p.outbox = p.outbox[:rest]
	for start := 0; start < len(taken); {
		// Grow the frame while it fits the budget; a message that alone
		// exceeds it still travels (Submit bounds fields, and the
		// transport counts and rejects oversize frames).
		size := batchFrameOverhead + msgBodySize(taken[start])
		end := start + 1
		for end < len(taken) && size+msgBodySize(taken[end]) <= DefaultBatchBytes {
			size += msgBodySize(taken[end])
			end++
		}
		p.broadcastFrame(taken[start:end])
		start = end
	}
	clear(taken) // the history owns them now; scratch must not pin them past their cleaning
	p.taken = taken[:0]
	p.cascade()
}

func (p *Process) broadcastFrame(batch []*causal.Message) {
	if len(batch) == 1 {
		m := batch[0]
		p.Stats.Generated++
		p.data.Msg = *m
		p.tp.Broadcast(&p.data)
		p.data.Msg = causal.Message{} // the frame is gone; do not pin its payload
		if p.cb.OnBroadcast != nil {
			p.cb.OnBroadcast(m)
		}
		p.processMsg(m)
		return
	}
	pdu := &p.batch
	for _, m := range batch {
		pdu.Msgs = append(pdu.Msgs, *m)
	}
	p.Stats.Generated += len(batch)
	p.Stats.Batches++
	p.tp.Broadcast(pdu)
	clear(pdu.Msgs)
	pdu.Msgs = pdu.Msgs[:0]
	for _, m := range batch {
		if p.cb.OnBroadcast != nil {
			p.cb.OnBroadcast(m)
		}
		p.processMsg(m)
	}
}

// buildRequest fills this process's own REQUEST record with its state for
// subrun s. The record is lent to the transport for the Send and rewritten at
// the next subrun; Prev is lastDec itself, borrowed the same way.
func (p *Process) buildRequest(s int64, join bool) *wire.Request {
	r := &p.req
	r.Sender, r.Subrun, r.Join, r.Prev = p.id, s, join, p.lastDec
	p.reportInto(r.LastProcessed, r.Waiting)
	return r
}

// reportInto writes this process's last-processed and oldest-waiting vectors.
func (p *Process) reportInto(lastProcessed, waiting mid.SeqVector) {
	copy(lastProcessed, p.tracker.Processed())
	clear(waiting)
	p.wait.OldestWaitingInto(waiting)
}

// reportSelf writes the coordinator's own report straight into its slot of
// the request table.
func (p *Process) reportSelf() {
	r := &p.reports[p.id]
	p.reportInto(r.lastProcessed, r.waiting)
	r.join = false
	p.heard[p.id] = true
}

// spareDec returns the decision record that holds nothing: neither lastDec
// nor reqPrev. Outside computeDecision there always is one.
func (p *Process) spareDec() *wire.Decision {
	for _, d := range p.decs {
		if d != p.lastDec && d != p.reqPrev {
			return d
		}
	}
	panic(fmt.Sprintf("core: process %d: no spare decision record", p.id))
}

// own copies a decision this process was only lent into the spare record and
// returns that; the caller gives the record its role. d must be Sized to the
// group.
func (p *Process) own(d *wire.Decision) *wire.Decision {
	mine := p.spareDec()
	mine.CopyFrom(d)
	return mine
}

// accountCoordinatorSilence closes clock subrun s. It counts as heard if a
// decision of the period arrived: the current subrun's, or the one an early
// subrun was opened on — an early subrun abandoned undecided is not counted.
func (p *Process) accountCoordinatorSilence(s int64) {
	if _, k := SplitSubrun(p.subrun); p.decisionThisSub || k > 0 {
		p.missedCoords = 0
		return
	}
	if !p.view.Alive(p.coordinator(s)) {
		return // we expected nothing from a crashed coordinator
	}
	p.missedCoords++
	if p.cfg.SelfExclusion && p.missedCoords >= p.cfg.K {
		p.leave(CoordinatorSilence)
	}
}

// decisionPhase is the odd tick: the deadline of the clock subrun's decision.
// An early subrun still undecided here is abandoned — the next tick opens
// the next clock subrun — and one already decided is not decided again.
func (p *Process) decisionPhase() {
	if _, k := SplitSubrun(p.subrun); p.joining || k > 0 || p.decided || p.coordinator(p.subrun) != p.id {
		return
	}
	p.decide()
}

// decide folds the request table into the current subrun's decision,
// circulates it and applies it.
func (p *Process) decide() {
	// Fold in our own (fresh) report.
	p.reportSelf()
	d := p.computeDecision()
	p.reqPrev = nil // folded into d; its record is the spare again
	p.Stats.Decisions++
	p.decided = true
	p.decisionThisSub = true
	p.missedCoords = 0
	p.tp.Broadcast(d)
	p.applyDecision(d)
}

// Recv handles one delivered PDU, which it borrows for the call. Of a control
// PDU — Request (and the decision embedded in it), Decision, Recover, Join,
// JoinState — nothing is kept: what the process needs is copied into state it
// owns, so the caller may reuse or recycle the record the moment Recv returns.
// Of a data PDU — Data, DataBatch, Retransmit — the process keeps the
// causal.Message records (history and waiting list hold them by reference):
// those the caller gives away for good.
func (p *Process) Recv(src mid.ProcID, pdu wire.PDU) {
	if !p.running {
		return
	}
	if p.joining && !p.synced {
		// Before the state transfer nothing is processable: history bases,
		// the processed vector and the own-sequence resume point are not
		// installed yet. Only the sponsor's answer matters.
		if js, ok := pdu.(*wire.JoinState); ok {
			p.installJoinState(js)
		}
		return
	}
	switch v := pdu.(type) {
	case *wire.Data:
		p.handleData(src, &v.Msg)
	case *wire.DataBatch:
		// One inbox event ingests the whole batch. Messages appear in
		// generation order, so intra-batch causality (each implicitly
		// depending on the sender's previous) resolves in a single pass.
		for i := range v.Msgs {
			p.handleData(src, &v.Msgs[i])
		}
	case *wire.Request:
		p.handleRequest(v)
	case *wire.Decision:
		p.handleDecision(v)
	case *wire.Recover:
		p.handleRecover(v)
	case *wire.Retransmit:
		p.handleRetransmit(src, v)
	case *wire.Join:
		p.handleJoin(v)
	case *wire.JoinState:
		// Duplicate sponsor answer after installation; stale by definition.
	}
}

// handleRequest folds one REQUEST: into the request table when this process
// coordinates the subrun it names, into the next subrun's row when its sender
// merely ran ahead of us, and otherwise only for the decision it carries.
func (p *Process) handleRequest(v *wire.Request) {
	n := p.cfg.N
	if v.Sender < 0 || int(v.Sender) >= n || len(v.LastProcessed) != n || len(v.Waiting) != n ||
		(v.Prev != nil && (!v.Prev.Sized(n) || !validSubrun(v.Prev.Subrun))) || !validSubrun(v.Subrun) {
		p.Stats.Malformed++ // not of this group: a stranger, vectors of another cardinality, a subrun no member opens
		return
	}
	if v.Subrun == p.subrun && p.coordinator(p.subrun) == p.id {
		p.reports[v.Sender].set(v)
		p.heard[v.Sender] = true
		p.foldPrev(v.Sender, v.Prev)
		return
	}
	if p.nextSubrun(v.Subrun) {
		e := p.early
		if e == nil {
			e = &earlyReports{reports: newReports(n), heard: make([]bool, n)}
			p.early = e
		}
		if e.subrun != v.Subrun && !laterSubrun(e.subrun, v.Subrun) {
			e.subrun = v.Subrun
			clear(e.heard)
		}
		if e.subrun == v.Subrun { // the row keeps the later candidate: the next clock subrun's reports
			e.reports[v.Sender].set(v)
			e.heard[v.Sender] = true
		}
		if v.Prev != nil {
			// The sender opened its subrun on this decision: likely the one
			// of our own current subrun, which may not have reached us yet.
			p.handleDecision(v.Prev)
			return
		}
	}
	if v.Prev != nil {
		// Not ours to coordinate (yet), but the embedded decision may still
		// be fresher than what we hold.
		p.noteDecision(v.Prev)
	}
}

// foldPrev keeps the decision embedded in a folded request if it is the
// freshest this subrun's table has seen and fresher than lastDec — which it
// must be to matter: computeDecision continues from the freshest of lastDec
// and the table, and lastDec only ever gets fresher. lastDec itself is not
// touched: adopting prev here would make handleDecision drop, as stale, the
// very decision when it arrives on its own after the request that carried it.
func (p *Process) foldPrev(from mid.ProcID, prev *wire.Decision) {
	if prev == nil || (p.lastDec != nil && !laterSubrun(prev.Subrun, p.lastDec.Subrun)) {
		return
	}
	if cur := p.reqPrev; cur != nil {
		if laterSubrun(cur.Subrun, prev.Subrun) || (prev.Subrun == cur.Subrun && from >= p.reqPrevFrom) {
			return
		}
		cur.CopyFrom(prev)
	} else {
		p.reqPrev = p.own(prev)
	}
	p.reqPrevFrom = from
}

// handleJoin answers a joiner's solicitation with a state transfer: the
// local stability watermark (the joiner's installable past — everything at
// or below it is uniformly stable, so a fresh history may start above it),
// the processed vector (the catch-up target), the resume point for the
// joiner's own sequence, and the freshest decision held (the joiner's entry
// into the circulation). The transfer is a snapshot of vectors, not bytes:
// the actual messages flow through the existing recovery path.
func (p *Process) handleJoin(j *wire.Join) {
	if p.joining || j.Joiner == p.id || int(j.Joiner) >= p.cfg.N || j.Joiner < 0 {
		return
	}
	p.Stats.Sponsored++
	p.tp.Send(j.Joiner, &wire.JoinState{ // vectors and decision lent, like every PDU's
		Sponsor:   p.id,
		Resume:    p.tracker.LastProcessed(j.Joiner),
		Stable:    p.lastClean,
		Processed: p.tracker.Processed(),
		Prev:      p.lastDec,
	})
}

// installJoinState bootstraps a joiner from the sponsor's snapshot. The
// stability watermark becomes the installed past — processed vector,
// history purge bases and the local clean watermark all start there — and
// the sponsor's view of our old sequence becomes the resume point, so new
// messages continue it instead of colliding with it. The embedded decision
// then pulls the joiner into the circulation: its recovery targets fetch
// everything between the watermark and the group's frontier.
func (p *Process) installJoinState(js *wire.JoinState) {
	if len(js.Stable) != p.cfg.N || len(js.Processed) != p.cfg.N {
		return // not our group's geometry; keep soliciting
	}
	if err := p.tracker.Install(js.Stable); err != nil {
		return
	}
	if err := p.hist.InstallBases(js.Stable); err != nil {
		// Unreachable: nothing is processed (or stored) pre-sync, so the
		// history is empty. A failure here is a protocol bug.
		panic(fmt.Sprintf("core: process %d: %v", p.id, err))
	}
	copy(p.lastClean, js.Stable)
	p.nextSeq = js.Resume
	if floor := js.Stable[p.id]; p.nextSeq < floor {
		p.nextSeq = floor
	}
	p.synced = true
	p.joinAligning = true
	if p.cb.OnJoinInstalled != nil {
		p.cb.OnJoinInstalled(js.Stable.Clone())
	}
	if js.Prev != nil {
		p.handleDecision(js.Prev)
	}
}

// becomeJoined ends the join: a decision's view includes us again, so we
// resume full duty — coordinating, reporting, and (once the own sequence
// caught up) generating. Counters restart so the self-exclusion rules
// measure the new incarnation, not the sync.
func (p *Process) becomeJoined() {
	p.joining = false
	p.decisionThisSub = true
	p.missedCoords = 0
	p.recoveryFailures = 0
	now := p.clock()
	p.tokenSubrun, p.waitingSince, p.stableSubrun = now, now, now
	p.declared = mid.None
	p.Stats.Joins++
	if p.cb.OnJoined != nil {
		p.cb.OnJoined()
	}
}

// handleRetransmit ingests a recovery answer. Ranges the responder reports
// compacted were purged there as uniformly stable — every live member
// processed them — so a process that cannot fetch the bytes anywhere skips
// its frontier over the gap instead of waiting forever. Only a joiner
// syncing against a moving stability watermark can hit that path: a live
// in-view member is covered by every full-group chain, so stability never
// outruns what it has processed. The retained messages then flow through
// the normal data path.
func (p *Process) handleRetransmit(src mid.ProcID, r *wire.Retransmit) {
	forwarded := false
	for _, c := range r.Compacted {
		if int(c.Proc) >= p.cfg.N || c.Proc < 0 || c.To <= p.tracker.LastProcessed(c.Proc) {
			continue // out of range, or already past the gap
		}
		p.hist.Skip(c.Proc, c.To)
		p.tracker.FastForward(c.Proc, c.To)
		p.Stats.FastForwards++
		forwarded = true
		if p.cb.OnFastForward != nil {
			p.cb.OnFastForward(c.Proc, c.To)
		}
	}
	if forwarded {
		// Waiting copies at or below the new frontier are obsolete
		// duplicates now; left in place they would present as "ready" and
		// trip the tracker's contiguity check. Above it, messages may have
		// become processable.
		p.wait.DropStale(p.tracker.Processed())
		p.cascade()
	}
	for _, m := range r.Msgs {
		p.handleData(src, m)
	}
}

func (p *Process) handleData(src mid.ProcID, m *causal.Message) {
	if m.Validate() != nil || !p.inGroup(m) {
		p.Stats.Malformed++
		return
	}
	if m.ID.Seq <= p.tracker.LastProcessed(m.ID.Proc) || p.wait.Has(m.ID) {
		p.Stats.Duplicates++
		return
	}
	if m.ID.Proc == p.id && ((src != p.id && !p.joining && !p.joinAligning) || (src == p.id && m.ID.Seq <= p.nextSeq)) {
		// Only an incarnation resyncing after a rejoin learns its own
		// sequence from its peers. Anyone else is being impersonated:
		// processing the copy would collide with the number the next own
		// broadcast takes. (src == self is not the network — the transports
		// never deliver a member its own frames, and the socket runtimes
		// refuse datagrams claiming to — but the offline replayer feeding a
		// member its own captured broadcasts, which is how it processed them.
		// A replayed member generates nothing, so a number it did generate
		// is a collision from self as well.)
		p.Stats.Malformed++
		return
	}
	if p.tracker.Doomed(m) {
		p.Stats.Duplicates++
		return // destroyed by agreement; never process, never wait
	}
	if p.tracker.Ready(m) {
		p.processMsg(m)
		p.cascade()
		return
	}
	if p.wait.Len() == 0 {
		p.waitingSince = p.clock()
	}
	p.wait.Add(m)
	if p.cb.OnWait != nil {
		p.cb.OnWait(m, p.missingDeps(m))
	}
}

// inGroup reports whether m and every label it carries name members of this
// group. Validate has already refused negative processes; the cardinality is
// only known here. Everything past this check may index per-process state
// by the message's ProcIDs.
func (p *Process) inGroup(m *causal.Message) bool {
	if int(m.ID.Proc) >= p.cfg.N {
		return false
	}
	for _, d := range m.Deps {
		if int(d.Proc) >= p.cfg.N {
			return false
		}
	}
	return true
}

// missingDeps returns m's currently unmet effective dependencies. The
// result reuses a scratch buffer: it is valid only until the next call,
// and callees must clone it to retain it (the OnWait contract).
func (p *Process) missingDeps(m *causal.Message) mid.DepList {
	missing := p.missScratch[:0]
	for _, d := range m.Deps {
		if p.tracker.LastProcessed(d.Proc) < d.Seq {
			missing = append(missing, d)
		}
	}
	if prev := m.ID.Prev(); !prev.IsZero() && p.tracker.LastProcessed(prev.Proc) < prev.Seq && !missing.Covers(prev) {
		missing = append(missing, prev)
	}
	missing = missing.Canonical()
	p.missScratch = missing
	return missing
}

func (p *Process) processMsg(m *causal.Message) {
	if err := p.tracker.Process(m); err != nil {
		// Ordering violations are protocol bugs; surface loudly.
		panic(fmt.Sprintf("core: process %d: %v", p.id, err))
	}
	if err := p.hist.Store(m); err != nil {
		panic(fmt.Sprintf("core: process %d: %v", p.id, err))
	}
	p.Stats.ProcessedN++
	if p.cb.OnProcess != nil {
		p.cb.OnProcess(m)
	}
}

func (p *Process) cascade() {
	for {
		m := p.wait.NextReady(p.tracker)
		if m == nil {
			return
		}
		p.wait.Remove(m.ID)
		p.processMsg(m)
	}
}

// noteDecision keeps the freshest decision seen without applying it (used
// for decisions gleaned from forwarded requests).
func (p *Process) noteDecision(d *wire.Decision) {
	if p.lastDec == nil || laterSubrun(d.Subrun, p.lastDec.Subrun) {
		p.lastDec = p.own(d)
	}
}

func (p *Process) handleDecision(d *wire.Decision) {
	if !validSubrun(d.Subrun) {
		p.Stats.Malformed++ // a subrun no member opens: in the packed order it would outrank every real one
		return
	}
	if p.lastDec != nil && !laterSubrun(d.Subrun, p.lastDec.Subrun) {
		return // stale
	}
	if !d.Sized(p.cfg.N) {
		p.Stats.Malformed++ // vectors of another group's cardinality
		return
	}
	if sameClock(d.Subrun, p.subrun) && !laterSubrun(p.subrun, d.Subrun) {
		// The decision of the current subrun — or of a later early subrun of
		// the same period, which catches this process up past a decision it
		// lost.
		p.subrun = d.Subrun
		p.decisionThisSub = true
		p.missedCoords = 0
	}
	p.applyDecision(p.own(d))
}

// applyDecision adopts d, one of this process's own records (computeDecision's,
// or own's copy of a received one), as lastDec and acts on it.
func (p *Process) applyDecision(d *wire.Decision) {
	p.lastDec = d
	p.appliedSubrun = d.Subrun
	if d.Coord != p.id || p.soleCoordinator() {
		p.tokenSubrun, _ = SplitSubrun(d.Subrun)
	}
	p.Stats.DecisionsApplied++
	if p.cb.OnDecision != nil {
		p.cb.OnDecision(d)
	}

	// Group composition: adopt the decision's membership verdicts.
	p.adoptMask(d.Alive)
	if p.joining && laterSubrun(d.Subrun, p.subrun) {
		// Chase the group's subrun numbering: a restarted member's round
		// clock restarts at zero, and requests naming a stale subrun are
		// never folded.
		dt, _ := SplitSubrun(d.Subrun)
		pt, _ := SplitSubrun(p.subrun)
		p.subrunBias += dt - pt
		p.subrun = d.Subrun
	}
	if p.joinAligning && int(p.id) < len(d.MaxProcessed) && d.MaxProcessed[p.id] > p.nextSeq {
		// Some member holds more of our previous incarnation's sequence
		// than the sponsor did; resume past it.
		p.nextSeq = d.MaxProcessed[p.id]
	}
	if int(p.id) < len(d.Alive) && !d.Alive[p.id] {
		if !p.joining {
			// We are supposed dead: commit suicide. (A restart re-enters
			// through the join protocol: leave, resync, rejoin.)
			p.leave(Suicide)
			return
		}
		// A joiner expects to be listed dead until a coordinator folds its
		// join-flagged request; keep soliciting admission.
	} else if p.joining {
		// The view includes us: a coordinator admitted our request — or we
		// restarted before anyone declared the old incarnation crashed.
		p.becomeJoined()
	}

	// History cleaning: only a full-group stability vector may purge.
	if d.FullGroup {
		// Clip to what we ourselves processed: stability says everyone
		// covered processed these, and we are alive, but clip defensively.
		clean := p.lastClean
		copy(clean, d.CleanTo)
		clean.MinInto(p.tracker.Processed())
		if p.hist.CleanTo(clean) > 0 {
			p.stableSubrun = p.clock()
		}
		if p.cb.OnStable != nil {
			p.cb.OnStable(clean)
		}

		// Orphaned sequences: a gap above the best alive holder of a
		// crashed root's sequence can never be filled; the group destroys
		// the dependents and restarts the sequence's consumers after the
		// gap... which is to say, never (a sequence cannot skip).
		for q := 0; q < p.cfg.N; q++ {
			if q >= len(d.Alive) || d.Alive[q] {
				continue
			}
			qp := mid.ProcID(q)
			if d.MinWaiting[q] != 0 && d.MinWaiting[q] > d.MaxProcessed[q]+1 {
				if p.tracker.LastProcessed(qp) <= d.MaxProcessed[q] {
					_ = p.tracker.Condemn(qp, d.MaxProcessed[q]+1)
				}
			}
		}
		for _, m := range p.wait.DropDoomed(p.tracker) {
			p.Stats.Discarded++
			if p.cb.OnDiscard != nil {
				p.cb.OnDiscard(m)
			}
		}
	}

	// Recovery from history: chase every sequence the decision proves we
	// are behind on.
	p.requestRecovery(d)

	// The R rule: leaving after R recovery attempts with no progress. Like
	// every fault count it is kept on the clock's subruns, so R bounds
	// clock subruns however many early ones run between them.
	if _, k := SplitSubrun(d.Subrun); k > 0 {
		return
	}
	cur := p.tracker.Processed().Sum()
	if p.recoveryRequested {
		if cur == p.lastProgress {
			p.recoveryFailures++
			if p.cfg.SelfExclusion && !p.joining && p.recoveryFailures >= p.cfg.R {
				p.leave(RecoveryExhausted)
				return
			}
		} else {
			p.recoveryFailures = 0
		}
	}
	p.lastProgress = cur
}

func (p *Process) requestRecovery(d *wire.Decision) {
	wantsBy := make(map[mid.ProcID][]wire.WantRange)
	const batch = DefaultRecoveryBatch
	for q := 0; q < p.cfg.N && q < len(d.MaxProcessed); q++ {
		qp := mid.ProcID(q)
		have := p.tracker.LastProcessed(qp)
		if d.MaxProcessed[q] <= have {
			continue
		}
		if c := p.tracker.CondemnedFrom(qp); c != 0 && have+1 >= c {
			continue // the gap is condemned, not recoverable
		}
		from := have + 1
		if p.wait.Has(mid.MID{Proc: qp, Seq: from}) {
			continue // already received; waiting on cross deps, not on q
		}
		holder := d.MostUpdated[q]
		if holder == p.id || holder == mid.None {
			continue
		}
		to := d.MaxProcessed[q]
		if to > from+batch-1 {
			to = from + batch - 1
		}
		wantsBy[holder] = append(wantsBy[holder], wire.WantRange{Proc: qp, From: from, To: to})
	}
	if len(wantsBy) == 0 {
		p.recoveryRequested = false
		return
	}
	p.recoveryRequested = true
	for h := 0; h < p.cfg.N; h++ { // fixed order keeps runs reproducible
		holder := mid.ProcID(h)
		wants, ok := wantsBy[holder]
		if !ok {
			continue
		}
		p.Stats.Recoveries++
		p.tp.Send(holder, &wire.Recover{Requester: p.id, Wants: wants})
	}
}

func (p *Process) handleRecover(r *wire.Recover) {
	var msgs []*causal.Message
	var compacted []wire.WantRange
	for _, w := range r.Wants {
		got, err := p.hist.Range(w.Proc, w.From, w.To)
		msgs = append(msgs, got...)
		var ce *history.CompactedError
		if errors.As(err, &ce) {
			// The front of the want was purged here as uniformly stable.
			// Name the prefix nobody retains, so a joiner can skip it
			// instead of chasing unreachable bytes through R retries.
			to := w.To
			if ce.Base < to {
				to = ce.Base
			}
			compacted = append(compacted, wire.WantRange{Proc: w.Proc, From: w.From, To: to})
		}
	}
	if len(msgs) == 0 && len(compacted) == 0 {
		return
	}
	p.Stats.Retransmits++
	p.tp.Send(r.Requester, &wire.Retransmit{Responder: p.id, Msgs: msgs, Compacted: compacted})
}

// adoptMask folds a decision's alive mask into the local view, in both
// directions: crash declarations remove members, join admissions restore
// them. Callers gate on decision freshness (handleDecision drops stale
// subruns), so the mask never time-travels; a truly crashed member that a
// stale view wrongly kept is re-declared within K subruns by the same
// silence counting that declared it the first time.
func (p *Process) adoptMask(mask []bool) {
	removed, added := p.view.Adopt(mask)
	for _, q := range added {
		p.noteJoined(q)
	}
	p.noteDeclared(removed)
	if len(removed)+len(added) > 0 {
		p.Stats.ViewChanges++
	}
}

// noteDeclared records members the local view just moved to declared-crashed.
func (p *Process) noteDeclared(crashed []mid.ProcID) {
	p.Stats.CrashDeclarations += len(crashed)
	if len(crashed) > 0 {
		p.declared, p.declaredAt = crashed[len(crashed)-1], p.clock()
	}
}

// soleCoordinator reports whether no other member of the view can
// coordinate: the token then circulates through this process alone.
func (p *Process) soleCoordinator() bool {
	for q := 0; q < p.cfg.N; q++ {
		if qp := mid.ProcID(q); qp != p.id && p.view.Alive(qp) && !p.cfg.IsObserver(qp) {
			return false
		}
	}
	return true
}

// noteJoined clears the bookkeeping of q's previous incarnation when the
// view re-admits it: the condemned-suffix mark (the rejoined sequence
// continues past the resume point and must be processable again), and any
// stale waiting copies the old incarnation left behind (whatever is still
// needed re-arrives through recovery; what is not would collide with the
// re-issued sequence numbers).
func (p *Process) noteJoined(q mid.ProcID) {
	p.tracker.Uncondemn(q)
	p.wait.DropSender(q)
}

func (p *Process) leave(reason LeaveReason) {
	if !p.running {
		return
	}
	p.running = false
	if p.cb.OnLeave != nil {
		p.cb.OnLeave(reason)
	}
}

// computeDecision folds the collected requests and the freshest circulated
// decision into this subrun's decision. See Figure 2 of the paper.
func (p *Process) computeDecision() *wire.Decision {
	n := p.cfg.N

	// The freshest previous decision: ours, or the one foldPrev kept of those
	// the requests carried. (The request table is indexed by sender, so every
	// walk over it is in the deterministic sender order.)
	prev := p.prevDecision()

	// The decision is built in the spare record: lent to the transport for
	// the broadcast, then kept as lastDec until two decisions later.
	d := p.spareDec()
	d.Subrun, d.Coord = p.subrun, p.id
	clear(d.MaxProcessed)
	for q := range d.MostUpdated {
		d.MostUpdated[q] = mid.None
	}

	// Group composition: start from the local view folded with the
	// previous decision's mask, then fold join admissions, then count
	// silence. A join-flagged request is a live, synced process asking back
	// in: re-admit it before Observe so the admission lands in this
	// decision's mask and its attempts counter restarts at zero (it is in
	// heard). Everyone else adopts the admission from the mask.
	if prev != nil {
		p.adoptMask(prev.Alive)
	}
	admitted := false
	for q := range p.reports {
		if p.heard[q] && p.reports[q].join && p.view.MarkAlive(mid.ProcID(q)) {
			p.noteJoined(mid.ProcID(q))
			admitted = true
		}
	}
	if admitted {
		p.Stats.ViewChanges++
	}
	att := p.attempts
	att.Reset()
	if prev != nil {
		att.Load(prev.Attempts)
	}
	declared := att.Observe(p.heard, p.view)
	for _, crashed := range declared {
		p.view.MarkCrashed(crashed)
	}
	p.noteDeclared(declared)
	if len(declared) > 0 {
		p.Stats.ViewChanges++
	}
	att.CopyTo(d.Attempts)
	for q := range d.Alive {
		d.Alive[q] = p.view.Alive(mid.ProcID(q))
	}

	// Most-updated holders, pruned to alive processes so recovery targets
	// can actually answer.
	if prev != nil {
		for q := 0; q < n && q < len(prev.MaxProcessed); q++ {
			h := prev.MostUpdated[q]
			if h != mid.None && p.view.Alive(h) {
				d.MaxProcessed[q] = prev.MaxProcessed[q]
				d.MostUpdated[q] = h
			}
		}
	}
	for sender := range p.reports {
		if !p.heard[sender] {
			continue
		}
		for q, s := range p.reports[sender].lastProcessed {
			if s > d.MaxProcessed[q] {
				d.MaxProcessed[q] = s
				d.MostUpdated[q] = mid.ProcID(sender)
			}
		}
	}

	// Stability chain (CleanTo/Covered) and the waiting minima: continue
	// the previous chain if it was still accumulating, else start afresh.
	chaining := prev != nil && !prev.FullGroup
	if chaining {
		copy(d.Covered, prev.Covered)
		copy(d.CleanTo, prev.CleanTo)
		copy(d.MinWaiting, prev.MinWaiting)
	} else {
		clear(d.Covered)
		clear(d.MinWaiting)
		for q := range d.CleanTo {
			d.CleanTo[q] = ^mid.Seq(0) // +inf until first report folds in
		}
	}
	for sender := range p.reports {
		if !p.heard[sender] {
			continue
		}
		r := &p.reports[sender]
		d.Covered[sender] = true
		d.CleanTo.MinInto(r.lastProcessed)
		for q, w := range r.waiting {
			if w != 0 && (d.MinWaiting[q] == 0 || w < d.MinWaiting[q]) {
				d.MinWaiting[q] = w
			}
		}
	}
	for q := range d.CleanTo {
		if d.CleanTo[q] == ^mid.Seq(0) {
			d.CleanTo[q] = 0 // nobody reported; nothing provably stable
		}
	}

	// Full group: every currently-alive process is covered by the chain.
	d.FullGroup = true
	for q := 0; q < n; q++ {
		if d.Alive[q] && !d.Covered[q] {
			d.FullGroup = false
			break
		}
	}
	return d
}
