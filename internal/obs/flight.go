package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// Flight is a flight recorder: a fixed-interval sampler that snapshots
// every counter and gauge in a Registry into bounded ring buffers. It
// turns the instantaneous per-node metrics into short time series, served
// as the /timeseries window: the recent past of every series, for a
// reader who wants more than one scrape.
//
// The steady-state Sample path allocates nothing: ring storage is
// preallocated, the registry is walked with VisitInts, and the visit
// closure is constructed once. A series that first appears mid-flight
// costs one allocation on its first sample and reads as zero for the
// samples before it existed (counters and gauges start at zero, so the
// backfill is semantically right).
//
// Sample and Snapshot are safe for concurrent use.
type Flight struct {
	reg      *Registry
	interval time.Duration
	capacity int

	mu      sync.Mutex
	samples int64 // total samples ever taken
	idx     int   // ring slot being written (valid inside sampleLocked)
	times   []int64
	series  map[string]*flightSeries
	visit   func(name string, v int64) // built once in NewFlight

	start time.Time
	mem   runtime.MemStats
	upG   *Gauge
	goroG *Gauge
	heapG *Gauge

	stopOnce sync.Once
	started  bool
	stop     chan struct{}
	done     chan struct{}
}

type flightSeries struct {
	vals []int64
}

// FlightOptions configure a Flight. Zero values select the defaults.
type FlightOptions struct {
	// Interval between samples when running via Start. Default 1s.
	Interval time.Duration
	// Cap is the ring length: how many samples of history are retained.
	// Default 512.
	Cap int
}

// NewFlight builds a recorder over reg. It registers the process gauges
// (uptime, goroutine count, heap in use) and the urcgc_build_info gauge
// so every flight automatically carries them; it does not start
// sampling — call Start, or drive Sample directly for deterministic
// tests.
func NewFlight(reg *Registry, opts FlightOptions) *Flight {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Cap <= 0 {
		opts.Cap = 512
	}
	f := &Flight{
		reg:      reg,
		interval: opts.Interval,
		capacity: opts.Cap,
		times:    make([]int64, opts.Cap),
		series:   make(map[string]*flightSeries),
		start:    time.Now(),
		upG:      reg.Gauge("process_uptime_seconds"),
		goroG:    reg.Gauge("process_goroutines"),
		heapG:    reg.Gauge("process_heap_inuse_bytes"),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	RegisterBuildInfo(reg)
	f.visit = func(name string, v int64) {
		s, ok := f.series[name]
		if !ok {
			s = &flightSeries{vals: make([]int64, f.capacity)}
			f.series[name] = s
		}
		s.vals[f.idx] = v
	}
	return f
}

// Interval returns the configured sampling interval.
func (f *Flight) Interval() time.Duration { return f.interval }

// Cap returns the ring length.
func (f *Flight) Cap() int { return f.capacity }

// Start launches the background sampler. Stop ends it; Start must be
// called at most once.
func (f *Flight) Start() {
	f.mu.Lock()
	f.started = true
	f.mu.Unlock()
	go func() {
		defer close(f.done)
		t := time.NewTicker(f.interval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				f.Sample()
			}
		}
	}()
}

// Stop halts the background sampler and waits for it to exit. Safe to
// call multiple times, and a no-op wait if Start was never called.
func (f *Flight) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	started := f.started
	f.mu.Unlock()
	if started {
		<-f.done
	}
}

// Sample takes one snapshot of every counter and gauge right now. The
// process gauges are refreshed first so they land in the same slot.
func (f *Flight) Sample() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.upG.Set(int64(time.Since(f.start) / time.Second))
	f.goroG.Set(int64(runtime.NumGoroutine()))
	runtime.ReadMemStats(&f.mem)
	f.heapG.Set(int64(f.mem.HeapInuse))
	f.idx = int(f.samples % int64(f.capacity))
	f.times[f.idx] = time.Now().UnixMilli()
	f.reg.VisitInts(f.visit)
	f.samples++
}

// Samples returns the total number of samples taken so far.
func (f *Flight) Samples() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.samples
}

// window returns (start ring slot, length) of the valid chronological
// window. Caller holds f.mu.
func (f *Flight) window() (start, n int) {
	n = int(f.samples)
	if n > f.capacity {
		n = f.capacity
	}
	start = int((f.samples - int64(n)) % int64(f.capacity))
	return start, n
}

// FlightSnapshot is the JSON shape served from /timeseries: the
// chronological sample window for every recorded series.
type FlightSnapshot struct {
	IntervalMillis int64              `json:"interval_ms"`
	Samples        int64              `json:"samples"`
	TimesMillis    []int64            `json:"times_ms"`
	Series         map[string][]int64 `json:"series"`
}

// Snapshot copies out the full chronological window.
func (f *Flight) Snapshot() FlightSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	start, n := f.window()
	snap := FlightSnapshot{
		IntervalMillis: f.interval.Milliseconds(),
		Samples:        f.samples,
		TimesMillis:    make([]int64, n),
		Series:         make(map[string][]int64, len(f.series)),
	}
	for i := 0; i < n; i++ {
		snap.TimesMillis[i] = f.times[(start+i)%f.capacity]
	}
	for name, s := range f.series {
		vals := make([]int64, n)
		for i := 0; i < n; i++ {
			vals[i] = s.vals[(start+i)%f.capacity]
		}
		snap.Series[name] = vals
	}
	return snap
}

// Handler serves the flight window as JSON (the /timeseries endpoint).
func (f *Flight) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(f.Snapshot())
	})
}
