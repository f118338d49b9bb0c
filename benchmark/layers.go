package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/obs"
)

// lifecycleCapacity is how many completed spans each lifecycle.Tracer
// retains; the stage medians are read from that sample when the window
// closes. Larger rings make every decision's span sweep dearer.
const lifecycleCapacity = 512

// liveTrace is the traced pass's machinery around one leg's cluster:
// registry snapshots at the slice edges, a 10 Hz Status poll for buffer
// peaks, and a watcher timing the crashed member's exclusion. A nil
// *liveTrace (the untraced pass) ignores every call.
type liveTrace struct {
	lr *liveRun
	ld *load

	snaps []map[string]int64 // one per slice edge read

	stop chan struct{}
	wg   sync.WaitGroup

	mu          sync.Mutex
	exclusionNs int64 // crash to the last survivor's view dropping the victim
}

func startLiveTrace(lr *liveRun, ld *load, o options) *liveTrace {
	t := &liveTrace{lr: lr, ld: ld, stop: make(chan struct{})}
	t.wg.Add(1)
	go func() { defer t.wg.Done(); t.pollStatus() }()
	if lr.w.crash {
		t.wg.Add(1)
		go func() { defer t.wg.Done(); t.watchExclusion(lr.born.Add(crashAt(o))) }()
	}
	return t
}

// edge snapshots every counter, gauge and histogram (count, sum) at the
// slice edge just read.
func (t *liveTrace) edge() {
	if t == nil {
		return
	}
	snap := make(map[string]int64)
	t.lr.reg.VisitInts(func(name string, v int64) { snap[name] = v })
	t.snaps = append(t.snaps, snap)
}

func storeMax(peak *atomic.Int64, v int64) {
	if v > peak.Load() {
		peak.Store(v) // one poller writes
	}
}

// pollStatus samples every member's history and waiting-list length ten
// times a second inside the window and keeps each slice's peaks.
func (t *liveTrace) pollStatus() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		s := t.ld.win.sliceOf(nowNs())
		if s == nil {
			continue
		}
		for _, m := range t.lr.members {
			for g := 0; g < t.lr.w.groups; g++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				st, err := m.status(ctx, uint32(g))
				cancel()
				if err != nil {
					continue // a crashed or busy member skips a sample
				}
				storeMax(&s.historyPeak, int64(st.HistoryLen))
				storeMax(&s.waitingPeak, int64(st.WaitingLen))
			}
		}
	}
}

// watchExclusion times how long after the scheduled crash every survivor's
// core_alive_count gauge shows the victim gone. Compare with the paper's
// 2K+f subruns.
func (t *liveTrace) watchExclusion(crash time.Time) {
	select {
	case <-t.stop:
		return
	case <-time.After(time.Until(crash)):
	}
	w := t.lr.w
	var gauges []*obs.Gauge
	for i := 0; i < w.n; i++ {
		if i != w.victim() {
			gauges = append(gauges, t.lr.reg.Gauge(obs.Labeled("core_alive_count", "node", strconv.Itoa(i))))
		}
	}
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		gone := true
		for _, g := range gauges {
			if g.Value() >= int64(w.n) {
				gone = false
			}
		}
		if gone {
			t.mu.Lock()
			t.exclusionNs = int64(time.Since(crash))
			t.mu.Unlock()
			return
		}
	}
}

// layerData is what the traced live pass hands to the metric shaping,
// summed over the clean slices of every leg.
type layerData struct {
	delta       map[string]int64 // registry movement across the clean slices
	historyPeak int64
	waitingPeak int64
	exclusionNs int64
	// Stage samples from the lifecycle tracers' retained spans, own
	// messages only, milliseconds; from whole legs only.
	submitToBroadcast []float64
	submitToProcessed []float64
}

func newLayerData() *layerData { return &layerData{delta: make(map[string]int64)} }

// merge folds one leg's data into d.
func (d *layerData) merge(o *layerData) {
	for name, v := range o.delta {
		d.delta[name] += v
	}
	d.historyPeak = max(d.historyPeak, o.historyPeak)
	d.waitingPeak = max(d.waitingPeak, o.waitingPeak)
	d.exclusionNs = max(d.exclusionNs, o.exclusionNs)
	d.submitToBroadcast = append(d.submitToBroadcast, o.submitToBroadcast...)
	d.submitToProcessed = append(d.submitToProcessed, o.submitToProcessed...)
}

func (d *layerData) sortSamples() {
	sort.Float64s(d.submitToBroadcast)
	sort.Float64s(d.submitToProcessed)
}

// finish stops the pollers and reports the leg: registry movement and
// buffer peaks over its first clean slices and, from a whole leg, the
// exclusion time and the lifecycle span sample (the tracers retain the most
// recent spans, which in a void leg are the disturbed ones).
func (t *liveTrace) finish(clean int, whole bool) *layerData {
	if t == nil {
		return nil
	}
	close(t.stop)
	t.wg.Wait()
	d := newLayerData()
	if clean > 0 {
		for name, v := range t.snaps[clean] {
			d.delta[name] = v - t.snaps[0][name]
		}
	}
	for i := 0; i < clean; i++ {
		s := &t.ld.win.slices[i]
		d.historyPeak = max(d.historyPeak, s.historyPeak.Load())
		d.waitingPeak = max(d.waitingPeak, s.waitingPeak.Load())
	}
	if !whole {
		return d
	}
	d.exclusionNs = t.exclusionNs
	for _, m := range t.lr.members {
		for g := 0; g < t.lr.w.groups; g++ {
			for _, s := range m.tracer(uint32(g)).Recent(lifecycleCapacity) {
				if s.GeneratedAt.IsZero() || s.ProcessedAt.IsZero() {
					continue // a remote message: no submit stage here
				}
				if !s.BroadcastAt.IsZero() {
					d.submitToBroadcast = append(d.submitToBroadcast, s.BroadcastAt.Sub(s.GeneratedAt).Seconds()*1e3)
				}
				d.submitToProcessed = append(d.submitToProcessed, s.ProcessedAt.Sub(s.GeneratedAt).Seconds()*1e3)
			}
		}
	}
	return d
}

// sum adds the movement of every series whose base name (labels stripped)
// is one of bases. Histograms appear as <base>_count and <base>_sum_us.
func (d *layerData) sum(bases ...string) float64 {
	var total int64
	for name, v := range d.delta {
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
		}
		for _, b := range bases {
			if base == b {
				total += v
			}
		}
	}
	return float64(total)
}

// exact adds the movement of the named series only: some topics counters
// exist both unlabeled (the node total) and per group under one base name.
func (d *layerData) exact(names ...string) float64 {
	var total int64
	for _, n := range names {
		total += d.delta[n]
	}
	return float64(total)
}

// histMean is the windowed mean of a histogram family, in the histogram's
// own unit (VisitInts projects sums scaled by 1e6).
func (d *layerData) histMean(bases ...string) float64 {
	var count, sumUs float64
	for _, b := range bases {
		count += d.sum(b + "_count")
		sumUs += d.sum(b + "_sum_us")
	}
	if count == 0 {
		return 0
	}
	return sumUs / 1e6 / count
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer shapes the traced pass into the per-layer metric set: registry
// movement and lifecycle stages from the live pass, call costs and byte
// counts from the layer drill.
func (m *measured) perLayer(dr *drillResult) (metrics, diag map[string]metric) {
	w, d := m.w, m.layers
	k := float64(m.confirmed)
	window := m.seconds()
	// Subruns opened across every (member, group) entity in the window.
	subruns := d.sum("core_subrun")
	entities := float64(w.n * w.groups)
	datagrams := d.sum("udp_send_datagrams_total", "topics_send_datagrams_total")
	metrics = map[string]metric{
		"rt.submit_to_broadcast_ms_p50": {quantileOf(d.submitToBroadcast, 0.5), "ms"},
		"rt.msgs_per_subrun":            {ratio(k, subruns), "count"},
		"rt.ceiling_utilisation":        {k / window / w.ceiling(), "ratio"},
		"rt.coalesce_flush_msgs_mean":   {d.histMean("rt_coalesce_flush_msgs"), "count"},
		"rt.batch_frame_msgs_mean":      {d.histMean("rt_batch_frame_msgs"), "count"},
		"rt.datagrams_per_msg":          {ratio(datagrams, k), "count"},
		"rt.tx_bytes_per_msg":           {ratio(d.sum("udp_send_bytes_total", "topics_send_bytes_total"), k), "bytes"},
		"rt.frames_per_burst":           {ratio(d.sum("topics_send_datagrams_total"), d.sum("topics_send_bursts_total")), "count"},
		"rt.rx_discards": {d.sum("udp_drop_short_total", "udp_drop_badsrc_total", "udp_drop_decode_total",
			"udp_drop_oversize_total", "udp_drop_readerr_total", "topics_drop_envelope_total", "topics_drop_group_total",
			"topics_drop_badsrc_total", "topics_drop_decode_total", "topics_drop_oversize_total", "topics_drop_readerr_total"), "count"},
		"rt.inbox_dropped": {d.sum("rt_inbox_dropped_total") + d.exact("topics_shard_dropped_total"), "count"},
		"rt.ticks_skipped": {d.exact("udp_ticks_skipped_total", "topics_ticks_skipped_total"), "count"},
		"rt.send_errors": {d.sum("udp_send_errors_total", "udp_send_oversize_total", "topics_send_errors_total",
			"topics_send_dropped_total", "topics_send_oversize_total"), "count"},
		"rt.members_left":          {float64(m.membersLost), "count"},
		"rt.round_barrier_ms_mean": {d.histMean("rt_round_barrier_seconds") * 1e3, "ms"},
		"topics.rounds_per_s":      {2 * subruns / entities / window, "1/s"},

		"core.broadcast_to_processed_ms_p50": {quantileOf(d.submitToProcessed, 0.5), "ms"},
		"core.waitlist_ms_mean":              {d.histMean("lifecycle_waitlist_seconds") * 1e3, "ms"},
		"core.submit_to_stable_ms_mean":      {m.submitToStableMs(), "ms"},
		"core.decision_latency_ms_mean":      {d.histMean("rt_decision_latency_seconds") * 1e3, "ms"},
		"core.history_len_peak":              {float64(d.historyPeak), "count"},
		"core.waiting_len_peak":              {float64(d.waitingPeak), "count"},
		"core.recoveries_per_kmsg":           {ratio(d.sum("core_recoveries_total"), k/1000), "count"},
		"core.retransmits_per_kmsg":          {ratio(d.sum("core_retransmits_total"), k/1000), "count"},
		"core.discards":                      {d.sum("core_discards_total"), "count"},
		"core.view_changes":                  {d.sum("core_view_changes_total"), "count"},
		"core.exclusion_ms":                  {float64(d.exclusionNs) / 1e6, "ms"},

		"harness.sched_lag_p95_ms": {m.lag.quantile(0.95) / 1e6, "ms"},
		"harness.ind_dropped":      {d.sum("rt_indications_dropped_total"), "count"},
		"harness.stall_reruns":     {float64(m.voidLegs), "count"},
	}
	for name, v := range dr.metrics() {
		metrics[name] = v
	}
	// The traced pass's own readings of what the untraced pass prints as
	// diagnostics; the suite sets run.cpu_ms_per_kmsg against the untraced
	// one for harness.trace_overhead_pct.
	e2e, e2eDiag, _ := m.endToEnd()
	metrics["run.cpu_ms_per_kmsg"] = e2eDiag["cpu_ms_per_kmsg"]
	metrics["run.delivery_p95_ms"] = e2eDiag["delivery_p95_ms"]
	diag = map[string]metric{
		"traced_confirmed_msgs_s": e2e["confirmed_msgs_s"],
		"lifecycle_span_sample":   {float64(len(d.submitToProcessed)), "count"},
		"exclusion_subruns":       {float64(d.exclusionNs) / float64(2*w.round), "count"},
		"paper_exclusion_subruns": {2*paramK + 1, "count"},
		"faults_injected":         {d.sum("faultrt_injected_total"), "count"},
		"runtime_warnings":        {float64(m.warnings), "count"},
		"stall_max_ms":            {float64(m.stallMax) / 1e6, "ms"},
		"host_cpu_share_before":   {m.hostShare[0], "ratio"},
		"host_cpu_share_after":    {m.hostShare[1], "ratio"},
		"quiet_wait_s":            {m.quietWait.Seconds(), "s"},
	}
	return metrics, diag
}

// submitToStableMs is the mean time from Submit to uniform stability:
// topics measures it directly; the single-group runtimes report submit to
// processed plus processed to stable.
func (m *measured) submitToStableMs() float64 {
	d := m.layers
	if d.sum("topics_submit_to_stable_seconds_count") > 0 {
		return d.histMean("topics_submit_to_stable_seconds") * 1e3
	}
	return (d.histMean("lifecycle_emit_to_process_seconds") + d.histMean("lifecycle_stability_lag_seconds")) * 1e3
}

// invalid names the harness guard a run tripped, "" if none: a run whose
// indications were dropped, or whose generator ran later than half a round
// at p95 (on the timer-paced workloads), did not measure what it claims to.
func (m *measured) invalid() string {
	if m.layers != nil {
		if n := m.layers.sum("rt_indications_dropped_total"); n > 0 {
			return fmt.Sprintf("%.0f indications dropped by a full queue", n)
		}
	}
	w := m.w
	if lag := time.Duration(m.lag.quantile(0.95)); w.round >= time.Millisecond && lag > w.round/2 {
		return fmt.Sprintf("generator lag p95 %v exceeds RoundDuration/2 = %v", lag.Round(10*time.Microsecond), w.round/2)
	}
	return ""
}
