package rt

import (
	"strconv"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// nodeObs holds one protocol entity's pre-resolved instruments, so hot
// paths touch atomics instead of registry maps, and installs no core hook:
// every count and gauge is read from the entity's core.Process by publish,
// at the end of each event its loop runs. What the Process cannot know — a
// frame shipped, a flush coalesced, an indication or datagram dropped, a
// confirm's wait, an own submission's instant — the runtime reports where
// it happens. A nil *nodeObs disables everything.
type nodeObs struct {
	reg *obs.Registry

	processed   *obs.Counter
	indDropped  *obs.Counter
	inboxDrops  *obs.Counter
	decisions   *obs.Counter
	recoveries  *obs.Counter
	retransmits *obs.Counter
	crashDecls  *obs.Counter
	discards    *obs.Counter

	viewChanges *obs.Counter
	joins       *obs.Counter // completed joins (this member re-entered the view)
	fastFwds    *obs.Counter // recovery fast-forwards over compacted history

	joiningG *obs.Gauge // 1 while this member is joining, 0 once admitted

	histLen     *obs.Gauge
	waitLen     *obs.Gauge
	pendingLen  *obs.Gauge
	inboxDepth  *obs.Gauge
	subrunG     *obs.Gauge
	coordG      *obs.Gauge
	aliveCount  *obs.Gauge
	decisionSub *obs.Gauge
	stableSum   *obs.Gauge

	decisionLat  *obs.Histogram
	confirmLat   *obs.Histogram
	submitStable *obs.Histogram // own submissions: protocol submit to uniform stability

	batchFrames *obs.Counter   // multi-message DataBatch frames broadcast
	batchMsgs   *obs.Counter   // user messages carried by those frames
	batchSize   *obs.Histogram // messages per DataBatch frame
	coalesceSz  *obs.Histogram // submissions per coalescer flush
	eager       *obs.Counter   // flushes that broadcast at submit time, not at the tick
	early       *obs.Counter   // subruns opened by arrivals, between the clock's

	// The rest is the loop goroutine's: the process last published, its
	// Stats and processed sum as they stood then, which every counter
	// advances from; the wall-clock open of the member's current subrun,
	// with that subrun's number; and the own submissions not yet stable,
	// oldest first from stampHead — own sequence numbers only grow within an
	// incarnation, so the stability watermark settles a prefix.
	proc        *core.Process
	last        core.Stats
	lastSum     uint64
	subrunStart time.Time
	openSubrun  int64
	stamps      []stamp
	stampHead   int
}

// stamp is the submission instant of one own message.
type stamp struct {
	seq mid.Seq
	at  time.Time
}

// newNodeObs resolves the instrument set of one protocol entity — member id
// of group g, a group of n — every series labelled {node, group}; nil
// registry → nil.
func newNodeObs(reg *obs.Registry, id mid.ProcID, n, g int) *nodeObs {
	if reg == nil {
		return nil
	}
	kv := []string{"node", strconv.Itoa(int(id)), "group", strconv.Itoa(g)}
	l := func(name string) string { return obs.Labeled(name, kv...) }
	o := &nodeObs{
		reg:          reg,
		processed:    reg.Counter(l("rt_processed_total")),
		indDropped:   reg.Counter(l("rt_indications_dropped_total")),
		inboxDrops:   reg.Counter(l("rt_inbox_dropped_total")),
		decisions:    reg.Counter(l("rt_decisions_total")),
		recoveries:   reg.Counter(l("core_recoveries_total")),
		retransmits:  reg.Counter(l("core_retransmits_total")),
		crashDecls:   reg.Counter(l("core_crash_declarations_total")),
		discards:     reg.Counter(l("core_discards_total")),
		viewChanges:  reg.Counter(l("core_view_changes_total")),
		joins:        reg.Counter(l("core_joins_total")),
		fastFwds:     reg.Counter(l("core_fast_forwards_total")),
		joiningG:     reg.Gauge(l("core_joining")),
		histLen:      reg.Gauge(l("core_history_len")),
		waitLen:      reg.Gauge(l("core_waiting_len")),
		pendingLen:   reg.Gauge(l("core_pending_len")),
		inboxDepth:   reg.Gauge(l("rt_inbox_depth")),
		subrunG:      reg.Gauge(l("core_subrun")),
		coordG:       reg.Gauge(l("core_coordinator")),
		aliveCount:   reg.Gauge(l("core_alive_count")),
		decisionSub:  reg.Gauge(l("core_decision_subrun")),
		stableSum:    reg.Gauge(l("core_stable_sum")),
		decisionLat:  reg.Histogram(l("rt_decision_latency_seconds"), obs.DurationBuckets),
		confirmLat:   reg.Histogram(l("rt_confirm_latency_seconds"), obs.DurationBuckets),
		submitStable: reg.Histogram(l("topics_submit_to_stable_seconds"), obs.DurationBuckets),
		batchFrames:  reg.Counter(l("rt_batch_frames_total")),
		batchMsgs:    reg.Counter(l("rt_batch_msgs_total")),
		batchSize:    reg.Histogram(l("rt_batch_frame_msgs"), obs.LengthBuckets),
		coalesceSz:   reg.Histogram(l("rt_coalesce_flush_msgs"), obs.LengthBuckets),
		eager:        reg.Counter(l("rt_eager_broadcasts_total")),
		early:        reg.Counter(l("rt_early_subruns_total")),
	}
	o.aliveCount.Set(int64(n))
	return o
}

// rebase starts counting from p when p is not the process last seen: a
// fresh incarnation (Mesh.Restart) counts from zero, so no counter ever
// decreases, and the old one's submissions are no longer timed.
func (o *nodeObs) rebase(p *core.Process) {
	if p != o.proc {
		o.proc, o.last, o.lastSum = p, core.Stats{}, 0
		o.stamps, o.stampHead = o.stamps[:0], 0
	}
}

// publish brings the entity's series up to date with its process, the one
// source of every count and gauge below: the counters advance by what
// p.Stats and the processed vector's sum gained since the last publish —
// the sum includes the watermark a joiner installed, which its previous
// incarnation processed — and the gauges read the accessors and the
// shard's inbox depth. The publish that first sees a subrun opened stamps
// its opening, which rt_decision_latency_seconds counts from, and the own
// submissions p's stability watermark newly covers are observed into
// topics_submit_to_stable_seconds. Run on the loop after every event;
// allocation-free.
func (o *nodeObs) publish(p *core.Process, inbox int) {
	if o == nil {
		return
	}
	o.rebase(p)
	st, last := &p.Stats, &o.last
	// Decisions before this event's subrun stamp: they are measured against
	// the subrun that was open when the event began.
	if applied := st.DecisionsApplied - last.DecisionsApplied; applied > 0 {
		o.decisions.Add(int64(applied))
		o.decided(p.DecisionSubrun(), applied)
	}
	opened := st.Subruns - last.Subruns
	o.subrunG.Add(int64(opened)) // subruns opened, the clock's and the early ones
	if opened > 0 {
		o.subrunStart, o.openSubrun = time.Now(), p.Subrun()
	}
	o.early.Add(int64(st.EarlySubruns - last.EarlySubruns))
	o.eager.Add(int64(st.EagerBroadcasts - last.EagerBroadcasts))
	o.discards.Add(int64(st.Discarded - last.Discarded))
	o.fastFwds.Add(int64(st.FastForwards - last.FastForwards))
	o.viewChanges.Add(int64(st.ViewChanges - last.ViewChanges))
	o.crashDecls.Add(int64(st.CrashDeclarations - last.CrashDeclarations))
	o.joins.Add(int64(st.Joins - last.Joins))
	*last = *st
	sum := p.Processed().Sum()
	o.processed.Add(int64(sum - o.lastSum))
	o.lastSum = sum

	clock, _ := core.SplitSubrun(p.DecisionSubrun()) // the clock subrun: monotone
	o.decisionSub.Set(clock)
	o.coordG.Set(int64(p.CurrentCoordinator()))
	o.aliveCount.Set(int64(p.View().AliveCount()))
	o.histLen.Set(int64(p.HistoryLen()))
	o.waitLen.Set(int64(p.WaitingLen()))
	o.pendingLen.Set(int64(p.PendingSubmissions()))
	o.stableSum.Set(int64(p.StableTo().Sum()))
	o.inboxDepth.Set(int64(inbox))
	joining := int64(0)
	if p.Joining() {
		joining = 1
	}
	o.joiningG.Set(joining)
	o.settle(p.StableTo()[p.ID()])
}

// decided observes the latencies of the n decisions one event applied, the
// last of them for subrun s, each from its subrun's opening as publish
// stamped it. Only s is known, so one sample measures from the stamp when s
// is the stamped subrun, and every other counts as zero: mostly a decision
// for a subrun the very event opened — an early subrun whose requests were
// already in — which took no time past that event.
func (o *nodeObs) decided(s int64, n int) {
	if s == o.openSubrun && !o.subrunStart.IsZero() {
		o.decisionLat.ObserveSince(o.subrunStart)
		n--
	}
	for ; n > 0; n-- {
		o.decisionLat.Observe(0)
	}
}

// Submitted stamps own message id, just submitted to p. Loop goroutine.
func (o *nodeObs) Submitted(p *core.Process, id mid.MID) {
	if o == nil {
		return
	}
	o.rebase(p)
	o.stamps = append(o.stamps, stamp{id.Seq, time.Now()})
}

// settle observes the submit→stable latency of every stamped submission at
// or below the own stability watermark stable, and drops it; the queue
// slides down once half of it is spent, so it stays as long as what is in
// flight.
func (o *nodeObs) settle(stable mid.Seq) {
	i := o.stampHead
	if i == len(o.stamps) || o.stamps[i].seq > stable {
		return
	}
	now := time.Now()
	for ; i < len(o.stamps) && o.stamps[i].seq <= stable; i++ {
		o.submitStable.Observe(now.Sub(o.stamps[i].at).Seconds())
	}
	if 2*i >= len(o.stamps) {
		n := copy(o.stamps, o.stamps[i:])
		o.stamps, i = o.stamps[:n], 0
	}
	o.stampHead = i
}

// Shipped counts what the entity hands its link: multi-message DataBatch
// frames and the messages they carry, RECOVER requests, and the messages
// RETRANSMIT answers carry. Loop goroutine.
func (o *nodeObs) Shipped(pdu wire.PDU) {
	if o == nil {
		return
	}
	switch p := pdu.(type) {
	case *wire.DataBatch:
		o.batchFrames.Inc()
		o.batchMsgs.Add(int64(len(p.Msgs)))
		o.batchSize.Observe(float64(len(p.Msgs)))
	case *wire.Recover:
		o.recoveries.Inc()
	case *wire.Retransmit:
		o.retransmits.Add(int64(len(p.Msgs)))
	}
}

// Coalesced records one coalescer flush of n submissions. Safe from any
// goroutine.
func (o *nodeObs) Coalesced(n int) {
	if o != nil {
		o.coalesceSz.Observe(float64(n))
	}
}

// IndicationDropped counts a slow consumer losing an indication.
func (o *nodeObs) IndicationDropped() {
	if o != nil {
		o.indDropped.Inc()
	}
}

// InboxDropped counts a datagram refused by a full inbox and records the
// by-design omission as a trace event, so the recovery path is verifiable
// from the log rather than assumed.
func (o *nodeObs) InboxDropped(id mid.ProcID) {
	if o == nil {
		return
	}
	o.inboxDrops.Inc()
	o.reg.Events().Addf("inbox-drop node=%d (full inbox: omission, recovered from history)", id)
}

// ObserveConfirm records one Rq→Conf latency (the paper's delay, wall-
// clock edition). Safe from any goroutine.
func (o *nodeObs) ObserveConfirm(t0 time.Time) {
	if o != nil {
		o.confirmLat.ObserveSince(t0)
	}
}
