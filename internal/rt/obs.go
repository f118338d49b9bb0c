package rt

import (
	"strconv"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// nodeObs holds one protocol entity's pre-resolved instruments, so hot
// paths touch atomics instead of registry maps. A nil *nodeObs disables
// everything.
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

	// The rest is publish's, on the loop goroutine: the process last
	// published and its Stats as they stood then, which every counter
	// advances from; and the wall-clock open of the member's current subrun,
	// with that subrun's number.
	proc        *core.Process
	last        core.Stats
	subrunStart time.Time
	openSubrun  int64
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

// publish brings the entity's series up to date with its process, the one
// source of every count and gauge below: the counters advance by what
// p.Stats counted since the last publish, the gauges read the accessors. A
// fresh incarnation (Mesh.Restart) counts from zero, so publish rebaselines
// when p changes and no counter ever decreases. The publish that first sees
// a subrun opened stamps its opening, which rt_decision_latency_seconds
// counts from. Run on the loop after every event; allocation-free.
func (o *nodeObs) publish(p *core.Process) {
	if o == nil {
		return
	}
	if p != o.proc {
		o.proc, o.last = p, core.Stats{}
	}
	st, last := &p.Stats, &o.last
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
	*last = *st

	o.coordG.Set(int64(p.CurrentCoordinator()))
	o.aliveCount.Set(int64(p.View().AliveCount()))
	o.histLen.Set(int64(p.HistoryLen()))
	o.waitLen.Set(int64(p.WaitingLen()))
	o.pendingLen.Set(int64(p.PendingSubmissions()))
	o.stableSum.Set(int64(p.StableTo().Sum()))
	joining := int64(0)
	if p.Joining() {
		joining = 1
	}
	o.joiningG.Set(joining)
}

// decided observes the latency of a decision for subrun s from its
// subrun's opening, as publish stamped it. A decision for another subrun
// than the stamped one counts as zero: mostly one opened by the very event
// that decides it — an early subrun whose requests were already in — which
// took no time past that event.
func (o *nodeObs) decided(s int64) {
	switch {
	case s != o.openSubrun:
		o.decisionLat.Observe(0)
	case !o.subrunStart.IsZero():
		o.decisionLat.ObserveSince(o.subrunStart)
	}
}

// callbacks returns the observability hooks of one protocol entity. All run
// on the node loop goroutine, like every core callback. A nil receiver
// returns no hooks.
func (o *nodeObs) callbacks() core.Callbacks {
	if o == nil {
		return core.Callbacks{}
	}
	return core.Callbacks{
		OnProcess: func(*causal.Message) { o.processed.Inc() },
		OnDecision: func(d *wire.Decision) {
			o.decisions.Inc()
			clock, _ := core.SplitSubrun(d.Subrun) // monotone, as the token-stall rule reads it
			o.decisionSub.Set(clock)
			o.decided(d.Subrun)
		},
		// The counter is per-OS-process, but the prefix at or below the
		// installed watermark was processed by the member's previous
		// incarnation and is skipped by state transfer. Seed it so the count
		// stays comparable across the cluster, and with the processed vector
		// the member's /status reports.
		OnJoinInstalled: func(stable mid.SeqVector) { o.processed.Add(int64(stable.Sum())) },
		OnJoined:        func() { o.joins.Inc() },
	}
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

// SampleInbox publishes the current inbox depth. Safe from any goroutine.
func (o *nodeObs) SampleInbox(depth int) {
	if o != nil {
		o.inboxDepth.Set(int64(depth))
	}
}
