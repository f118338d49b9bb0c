// Package lifecycle traces one span per message identifier through the
// urcgc protocol's own stages: generated → broadcast → waiting (with which
// dependencies are blocking) → decided → processed/discarded → uniformly
// stable. The paper's headline claims are latency claims — bounded-time
// uniform atomicity, no suspension during membership change — and a span
// records exactly where a message spent that time, so "why is delivery
// stalled" is answered by a query instead of a debugging session.
//
// A Tracer is fed from the core.Callbacks stage hooks on the goroutine
// driving the protocol entity, and read concurrently by HTTP handlers and
// shutdown reports; a mutex serializes the two. The layer is disabled by
// default: a nil *Tracer accepts every call as a no-op, and the runtimes
// only install the stage callbacks when a tracer exists, so the send and
// deliver hot paths stay allocation-free when tracing is off (guarded by
// TestLifecycleDisabledAllocFree and the LifecycleOverhead bench).
//
// Stage semantics follow the paper. "Generated" and "broadcast" are
// Definition 3.1's emission of a labelled message (broadcast may lag
// generation by rounds: the outbox and Section 6 flow control sit between
// them). "Waiting" is the waiting-list residence of Definition 3.1's
// processing rule — a message parks until its labels are satisfied.
// "Decided" means a decision whose max_processed covers the MID was applied
// locally: the group provably knows the message exists. "Stable" is
// Definition 3.2's uniform atomicity made operational: a full-group
// clean_to covering the MID arrived, so every live member has processed it.
package lifecycle

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// Outcome says how a span ended, if it has.
type Outcome uint8

// Span outcomes.
const (
	// InFlight marks a span still moving through the stages.
	InFlight Outcome = iota
	// Processed marks a span whose message was processed locally.
	Processed
	// Discarded marks a span destroyed by the orphaned-sequence agreement.
	Discarded
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case InFlight:
		return "in-flight"
	case Processed:
		return "processed"
	case Discarded:
		return "discarded"
	default:
		return "outcome(" + strconv.Itoa(int(o)) + ")"
	}
}

// Span is one message's locally observed lifecycle. Zero timestamps mean
// the stage was not observed at this member (remote messages have no
// Generated/Broadcast; fast messages never wait).
type Span struct {
	ID mid.MID

	FirstSeen   time.Time // earliest local observation, whatever the stage
	GeneratedAt time.Time // own message accepted by Submit
	BroadcastAt time.Time // own message left the outbox onto the wire
	WaitingAt   time.Time // parked in the waiting list
	DecidedAt   time.Time // first decision covering the MID applied locally
	ProcessedAt time.Time // processed (delivered in causal order)
	DiscardedAt time.Time // destroyed by agreement
	StableAt    time.Time // full-group clean_to covered the MID

	// Blocking lists the unmet dependencies observed when the message
	// parked in the waiting list; cleared once the message processes.
	Blocking []mid.MID

	Outcome Outcome
	// Stuck marks a span the watchdog flagged for waiting past threshold.
	Stuck bool
}

// done reports whether the span reached a terminal outcome.
func (s *Span) done() bool { return s.Outcome != InFlight }

// EndToEnd returns the first-observation→terminal latency of a done span.
func (s *Span) EndToEnd() time.Duration {
	end := s.ProcessedAt
	if s.Outcome == Discarded {
		end = s.DiscardedAt
	}
	if end.IsZero() || s.FirstSeen.IsZero() {
		return 0
	}
	return end.Sub(s.FirstSeen)
}

// Options tunes a Tracer. The zero value is usable.
type Options struct {
	// Capacity bounds the retained completed spans (default 256).
	Capacity int
	// SlowThreshold is how long a span may sit in the waiting list before
	// the watchdog flags it (default 1s).
	SlowThreshold time.Duration
	// Blame, when non-nil, is asked to explain a stuck span from the
	// dependencies blocking it; a non-empty answer is appended to the
	// watchdog's event line. The runtimes wire this to the fault injector's
	// per-process fault summary, so a span stalled behind an injected crash
	// or omission burst says so. Called outside the tracer's lock.
	Blame func(blocking []mid.MID) string
}

func (o Options) fill() Options {
	if o.Capacity <= 0 {
		o.Capacity = 256
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = time.Second
	}
	return o
}

// Tracer records spans for one group member. All stage methods are safe on
// a nil receiver (no-ops), so callers thread a possibly-nil tracer without
// branching. A non-nil Tracer is safe for concurrent use: stages arrive
// from the protocol goroutine while reports are read from HTTP handlers.
type Tracer struct {
	opts   Options
	node   mid.ProcID
	group  int // hosted-group id
	events *obs.EventLog

	// Pre-resolved instruments; all nil when no registry was given.
	emitToProcess *obs.Histogram
	waitlist      *obs.Histogram
	decision      *obs.Histogram
	stabilityLag  []*obs.Histogram // per sender
	slowTotal     *obs.Counter

	mu        sync.Mutex
	byID      map[mid.MID]*Span // in-flight + retained completed
	inflight  int
	ring      []*Span // completed, oldest overwritten first
	next      int
	full      bool
	started   int64
	completed int64
	discarded int64
	evicted   int64
	flagged   int64
	decided   mid.SeqVector // watermark: decisions cover (q, s<=decided[q])
	stable    mid.SeqVector // watermark: uniform stability
	lastCheck time.Time

	clock func() time.Time // test seam; time.Now outside tests
}

// New returns a tracer for member node of hosted group `group` (of n
// members). reg, when non-nil, receives the stage-latency histograms and the
// watchdog counter, every series labelled with the node and the group (the
// labels of the runtime's per-entity series), and its event log receives
// watchdog flags naming both. Report carries the group too: MIDs recur
// across groups, so (group, MID) is the cross-node stitcher's join key.
func New(node mid.ProcID, n int, group uint32, opts Options, reg *obs.Registry) *Tracer {
	t := &Tracer{
		opts:    opts.fill(),
		node:    node,
		group:   int(group),
		byID:    make(map[mid.MID]*Span),
		decided: mid.NewSeqVector(n),
		stable:  mid.NewSeqVector(n),
		clock:   time.Now,
	}
	t.ring = make([]*Span, t.opts.Capacity)
	if reg != nil {
		t.events = reg.Events()
		kv := []string{"node", strconv.Itoa(int(node)), "group", strconv.Itoa(t.group)}
		l := func(name string) string { return obs.Labeled(name, kv...) }
		t.emitToProcess = reg.Histogram(l("lifecycle_emit_to_process_seconds"), obs.DurationBuckets)
		t.waitlist = reg.Histogram(l("lifecycle_waitlist_seconds"), obs.DurationBuckets)
		t.decision = reg.Histogram(l("lifecycle_decision_seconds"), obs.DurationBuckets)
		t.slowTotal = reg.Counter(l("lifecycle_slow_messages_total"))
		t.stabilityLag = make([]*obs.Histogram, n)
		for q := range t.stabilityLag {
			t.stabilityLag[q] = reg.Histogram(obs.Labeled(
				"lifecycle_stability_lag_seconds", append(kv, "sender", strconv.Itoa(q))...), obs.DurationBuckets)
		}
	}
	return t
}

// get returns the span for id, creating it at now on first observation.
// A freshly created span inherits the watermarks: a message first seen
// after the decision (or stability) covering it — a recovery retransmit,
// say — is already decided (stable) from its first instant here.
func (t *Tracer) get(id mid.MID, now time.Time) *Span {
	if s, ok := t.byID[id]; ok {
		return s
	}
	s := &Span{ID: id, FirstSeen: now}
	if int(id.Proc) < len(t.decided) && id.Seq <= t.decided[id.Proc] {
		s.DecidedAt = now
	}
	if int(id.Proc) < len(t.stable) && id.Seq <= t.stable[id.Proc] {
		s.StableAt = now
	}
	t.byID[id] = s
	t.inflight++
	t.started++
	return s
}

// complete moves a span to the completed ring, evicting the oldest
// retained span when the ring is full.
func (t *Tracer) complete(s *Span) {
	t.inflight--
	if old := t.ring[t.next]; old != nil {
		// Evict only if the map still points at the ring occupant (a
		// re-observed MID may have replaced it).
		if cur, ok := t.byID[old.ID]; ok && cur == old {
			delete(t.byID, old.ID)
		}
		t.evicted++
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.next == 0 {
		t.full = true
	}
}

// Generated records Submit accepting an own message.
func (t *Tracer) Generated(id mid.MID) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	t.get(id, now).GeneratedAt = now
	t.mu.Unlock()
}

// Broadcast records an own message leaving the outbox onto the wire.
func (t *Tracer) Broadcast(id mid.MID) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	s := t.get(id, now)
	if s.BroadcastAt.IsZero() {
		s.BroadcastAt = now
	}
	t.mu.Unlock()
}

// Waiting records a message parking in the waiting list with the given
// unmet dependencies. blocking is cloned; callers may reuse the backing
// array (core hands out a scratch buffer).
func (t *Tracer) Waiting(id mid.MID, blocking mid.DepList) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	s := t.get(id, now)
	if s.WaitingAt.IsZero() {
		s.WaitingAt = now
	}
	s.Blocking = append(s.Blocking[:0], blocking...)
	t.mu.Unlock()
}

// Processed records local processing: the span completes with stage
// latencies fed into the histograms.
func (t *Tracer) Processed(id mid.MID) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	s := t.get(id, now)
	if s.done() { // duplicate terminal observation: keep the first
		t.mu.Unlock()
		return
	}
	s.ProcessedAt = now
	s.Outcome = Processed
	s.Blocking = s.Blocking[:0]
	t.completed++
	t.complete(s)
	generatedAt, waitingAt := s.GeneratedAt, s.WaitingAt
	t.mu.Unlock()
	if t.emitToProcess != nil && !generatedAt.IsZero() {
		t.emitToProcess.Observe(now.Sub(generatedAt).Seconds())
	}
	if t.waitlist != nil && !waitingAt.IsZero() {
		t.waitlist.Observe(now.Sub(waitingAt).Seconds())
	}
}

// Discarded records the agreed destruction of a waiting message.
func (t *Tracer) Discarded(id mid.MID) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	s := t.get(id, now)
	if s.done() {
		t.mu.Unlock()
		return
	}
	s.DiscardedAt = now
	s.Outcome = Discarded
	t.discarded++
	t.complete(s)
	t.mu.Unlock()
}

// DecisionApplied advances the decided watermark to the decision's
// max_processed vector and stamps every covered span that was still
// undecided, feeding first-seen→decided latency into the histogram.
func (t *Tracer) DecisionApplied(maxProcessed mid.SeqVector) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	t.decided.MaxInto(maxProcessed)
	var samples []float64
	for _, s := range t.byID {
		if !s.DecidedAt.IsZero() {
			continue
		}
		if int(s.ID.Proc) < len(t.decided) && s.ID.Seq <= t.decided[s.ID.Proc] {
			s.DecidedAt = now
			if t.decision != nil && !s.FirstSeen.IsZero() {
				samples = append(samples, now.Sub(s.FirstSeen).Seconds())
			}
		}
	}
	t.mu.Unlock()
	for _, lat := range samples {
		t.decision.Observe(lat)
	}
}

// StableTo advances the uniform-stability watermark to the full-group
// clean_to vector, stamping every covered span and feeding the per-sender
// processed→stable lag (the paper's uniform-atomicity latency).
func (t *Tracer) StableTo(clean mid.SeqVector) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	t.stable.MaxInto(clean)
	type sample struct {
		sender mid.ProcID
		lat    float64
	}
	var samples []sample
	for _, s := range t.byID {
		if !s.StableAt.IsZero() {
			continue
		}
		if int(s.ID.Proc) < len(t.stable) && s.ID.Seq <= t.stable[s.ID.Proc] {
			s.StableAt = now
			if t.stabilityLag != nil && !s.ProcessedAt.IsZero() && int(s.ID.Proc) < len(t.stabilityLag) {
				samples = append(samples, sample{s.ID.Proc, now.Sub(s.ProcessedAt).Seconds()})
			}
		}
	}
	t.mu.Unlock()
	for _, sm := range samples {
		t.stabilityLag[sm.sender].Observe(sm.lat)
	}
}

// Tick runs the slow-message watchdog if a check is due: any in-flight
// span waiting past SlowThreshold is flagged once, counted, and logged with
// the dependencies blocking it. Call it at every round tick; it self-rate-
// limits to a quarter of SlowThreshold, so per-round cost is usually one
// time comparison.
func (t *Tracer) Tick() {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	if now.Sub(t.lastCheck) < t.opts.SlowThreshold/4 {
		t.mu.Unlock()
		return
	}
	t.lastCheck = now
	type flag struct {
		id       mid.MID
		waited   time.Duration
		blocking []mid.MID
	}
	var flags []flag
	for _, s := range t.byID {
		if s.done() || s.Stuck || s.WaitingAt.IsZero() {
			continue
		}
		if w := now.Sub(s.WaitingAt); w >= t.opts.SlowThreshold {
			s.Stuck = true
			t.flagged++
			flags = append(flags, flag{s.ID, w, append([]mid.MID(nil), s.Blocking...)})
		}
	}
	t.mu.Unlock()
	for _, f := range flags {
		if t.slowTotal != nil {
			t.slowTotal.Inc()
		}
		if t.events != nil {
			blame := ""
			if t.opts.Blame != nil {
				if b := t.opts.Blame(f.blocking); b != "" {
					blame = " (" + b + ")"
				}
			}
			t.events.Addf("lifecycle: node=%d group=%d %v stuck waiting %v, blocked on %v%s",
				t.node, t.group, f.id, f.waited.Round(time.Millisecond), f.blocking, blame)
		}
	}
}

// Counts is the tracer's span accounting.
type Counts struct {
	Started   int64 // spans ever opened
	InFlight  int   // spans without a terminal outcome
	Completed int64 // spans ended in Processed
	Discarded int64 // spans ended in Discarded
	Evicted   int64 // completed spans dropped by ring wraparound
	Flagged   int64 // spans the watchdog marked stuck
}

// Counts returns the current span accounting.
func (t *Tracer) Counts() Counts {
	if t == nil {
		return Counts{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Counts{
		Started: t.started, InFlight: t.inflight, Completed: t.completed,
		Discarded: t.discarded, Evicted: t.evicted, Flagged: t.flagged,
	}
}

// snapshotLocked deep-copies a span for handoff outside the lock.
func snapshotLocked(s *Span) Span {
	cp := *s
	cp.Blocking = append([]mid.MID(nil), s.Blocking...)
	return cp
}

// SlowestInFlight returns up to n in-flight spans ordered slowest first
// (oldest first observation). Spans flagged by the watchdog sort ahead of
// unflagged ones of the same age class.
func (t *Tracer) SlowestInFlight(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, 0, t.inflight)
	for _, s := range t.byID {
		if !s.done() {
			out = append(out, snapshotLocked(s))
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stuck != out[j].Stuck {
			return out[i].Stuck
		}
		return out[i].FirstSeen.Before(out[j].FirstSeen)
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Recent returns up to n completed spans, most recently completed first.
func (t *Tracer) Recent(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, n)
	size := t.next
	if t.full {
		size = len(t.ring)
	}
	for i := 0; i < size && len(out) < n; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		if s := t.ring[idx]; s != nil {
			out = append(out, snapshotLocked(s))
		}
	}
	return out
}

// TopSlowest returns up to n retained completed spans with the largest
// end-to-end latency, slowest first — the shutdown-summary evidence.
func (t *Tracer) TopSlowest(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	all := make([]Span, 0, len(t.ring))
	for _, s := range t.ring {
		if s != nil {
			all = append(all, snapshotLocked(s))
		}
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].EndToEnd() > all[j].EndToEnd() })
	if len(all) > n {
		all = all[:n]
	}
	return all
}
