// Package obs is a lightweight, dependency-free observability substrate
// for the live runtime: counters, gauges and histograms collected in a
// Registry, exported as Prometheus text, as expvar, or as an aligned
// shutdown summary table.
//
// The package exists because the paper's evaluation (Figures 5-6, Table 1)
// is reproduced only under simulated time in internal/simnet; the
// wall-clock runtime needs its own continuously-updated signals — round
// timing, inbox depth, dropped datagrams, history and waiting-list growth —
// to make recovery-driven behavior observable rather than assumed
// (Lundström-Raynal-Schiller's argument for self-stabilizing URB: buffer
// gauges are how divergence is detected).
//
// All instruments are safe for concurrent use. Creation through the
// Registry is get-or-create, so hot paths may call Counter(name) every
// time, though holding the returned pointer is cheaper.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the value to n if n is larger.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DurationBuckets suit wall-clock latencies from 50µs to ~13s.
var DurationBuckets = expBuckets(50e-6, 2, 18)

// LengthBuckets suit queue/buffer lengths from 1 to ~32k.
var LengthBuckets = expBuckets(1, 2, 16)

func expBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	sort.Float64s(h.bounds)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the mean observation (0 with no samples).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1)
// from the bucket boundaries: the smallest bound whose cumulative count
// covers q. The last bucket reports the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] // overflow bucket: clip
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry is a named collection of instruments. The zero value is not
// usable; call New.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// histInts holds each histogram's precomputed flight-series names
	// (`<base>_count{labels}`, `<base>_sum_us{labels}`), so VisitInts can
	// surface latency histograms as integer series without allocating.
	histInts map[string]histIntNames
	events   *EventLog
}

type histIntNames struct{ count, sumUs string }

// New returns an empty registry with an event log of the given capacity
// (≤ 0 means a default of 256 events).
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		histInts: make(map[string]histIntNames),
		events:   NewEventLog(256),
	}
}

// Counter returns the counter with the given name, creating it if needed.
// The name may carry a Prometheus label suffix built with Labeled.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket bounds if needed (nil bounds means DurationBuckets).
// Bounds are fixed at creation; later calls may pass nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DurationBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
		base, labels := splitName(name)
		r.histInts[name] = histIntNames{
			count: base + "_count" + labelBody(labels),
			sumUs: base + "_sum_us" + labelBody(labels),
		}
	}
	return h
}

// Events returns the registry's event log.
func (r *Registry) Events() *EventLog { return r.events }

// Labeled composes a metric name with Prometheus labels from key/value
// pairs: Labeled("x_total", "node", "3") = `x_total{node="3"}`. The export
// format groups series sharing a base name under one TYPE line.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// baseName strips a label suffix.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitName separates a series name into base and label body ("" if none).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, sorted by name for stable output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	hists := sortedKeys(r.hists)
	cs := make(map[string]*Counter, len(counters))
	gs := make(map[string]*Gauge, len(gauges))
	hs := make(map[string]*Histogram, len(hists))
	for _, k := range counters {
		cs[k] = r.counters[k]
	}
	for _, k := range gauges {
		gs[k] = r.gauges[k]
	}
	for _, k := range hists {
		hs[k] = r.hists[k]
	}
	r.mu.Unlock()

	lastType := ""
	for _, name := range counters {
		emitType(w, baseName(name), "counter", &lastType)
		fmt.Fprintf(w, "%s %d\n", name, cs[name].Value())
	}
	// The event log's own accounting, so scrapes can tell how much of the
	// trace ring has wrapped without hitting the /events endpoint.
	if r.events != nil {
		fmt.Fprintf(w, "# TYPE obs_events_total counter\nobs_events_total %d\n", r.events.Total())
		fmt.Fprintf(w, "# TYPE obs_events_dropped_total counter\nobs_events_dropped_total %d\n", r.events.Dropped())
	}
	lastType = ""
	for _, name := range gauges {
		emitType(w, baseName(name), "gauge", &lastType)
		fmt.Fprintf(w, "%s %d\n", name, gs[name].Value())
	}
	lastType = ""
	for _, name := range hists {
		h := hs[name]
		base, labels := splitName(name)
		emitType(w, base, "histogram", &lastType)
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, labelPrefix(labels), formatBound(bound), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labelPrefix(labels), cum)
		fmt.Fprintf(w, "%s_sum%s %g\n", base, labelBody(labels), h.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", base, labelBody(labels), h.Count())
	}
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func labelBody(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

func emitType(w io.Writer, base, typ string, last *string) {
	if base == *last {
		return
	}
	*last = base
	fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteSummary renders an aligned human-readable table of every
// instrument: the shutdown report of a live node.
func (r *Registry) WriteSummary(w io.Writer) {
	r.mu.Lock()
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	hists := sortedKeys(r.hists)
	lines := make([][2]string, 0, len(counters)+len(gauges)+len(hists))
	for _, name := range counters {
		lines = append(lines, [2]string{name, fmt.Sprintf("%d", r.counters[name].Value())})
	}
	for _, name := range gauges {
		lines = append(lines, [2]string{name, fmt.Sprintf("%d", r.gauges[name].Value())})
	}
	for _, name := range hists {
		h := r.hists[name]
		lines = append(lines, [2]string{name, fmt.Sprintf(
			"count=%d mean=%.4g p50≤%.4g p99≤%.4g", h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99))})
	}
	r.mu.Unlock()

	width := 0
	for _, l := range lines {
		if len(l[0]) > width {
			width = len(l[0])
		}
	}
	for _, l := range lines {
		fmt.Fprintf(w, "  %-*s  %s\n", width, l[0], l[1])
	}
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// VisitInts calls f once for the current value of every plain counter and
// gauge, and twice per histogram with its integer projections — the
// observation count as `<base>_count{labels}` and the sum in microseconds
// as `<base>_sum_us{labels}` — holding the registry lock for the duration.
// The histogram projections are what put latency on the flight recorder:
// a window of (count, sum) deltas is a windowed mean, so per-group confirm
// and submit→stable latency ride /timeseries next to the gauges. Unlike
// Snapshot it allocates nothing (the projection names are precomputed at
// histogram creation), which is what the flight recorder's fixed-interval
// sampler needs; f must not call back into the registry.
func (r *Registry) VisitInts(f func(name string, v int64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		f(name, c.Value())
	}
	for name, g := range r.gauges {
		f(name, g.Value())
	}
	for name, h := range r.hists {
		names := r.histInts[name]
		f(names.count, h.Count())
		f(names.sumUs, int64(h.Sum()*1e6))
	}
}

// Snapshot returns the current value of every plain counter and gauge
// (histograms excluded), for tests and expvar export.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}
