package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestFlightRecordsWindow(t *testing.T) {
	reg := New()
	g := reg.Gauge("g")
	c := reg.Counter("c")
	f := NewFlight(reg, FlightOptions{Interval: time.Millisecond, Cap: 4})
	for i := 1; i <= 3; i++ {
		g.Set(int64(i * 10))
		c.Inc()
		f.Sample()
	}
	snap := f.Snapshot()
	if snap.Samples != 3 || len(snap.TimesMillis) != 3 {
		t.Fatalf("samples=%d times=%d, want 3/3", snap.Samples, len(snap.TimesMillis))
	}
	if got := snap.Series["g"]; got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("g series = %v", got)
	}
	if got := snap.Series["c"]; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("c series = %v", got)
	}
	// Process gauges and build info ride along automatically.
	for _, name := range []string{"process_uptime_seconds", "process_goroutines", "process_heap_inuse_bytes"} {
		if _, ok := snap.Series[name]; !ok {
			t.Errorf("series %q missing from flight", name)
		}
	}
	found := false
	for name, vals := range snap.Series {
		if len(name) > 16 && name[:16] == "urcgc_build_info" {
			found = true
			if vals[len(vals)-1] != 1 {
				t.Errorf("build info gauge = %v, want 1", vals)
			}
		}
	}
	if !found {
		t.Error("urcgc_build_info series missing")
	}
}

func TestFlightRingWraps(t *testing.T) {
	reg := New()
	g := reg.Gauge("g")
	f := NewFlight(reg, FlightOptions{Cap: 4})
	for i := 1; i <= 10; i++ {
		g.Set(int64(i))
		f.Sample()
	}
	snap := f.Snapshot()
	if snap.Samples != 10 || len(snap.TimesMillis) != 4 {
		t.Fatalf("samples=%d window=%d, want 10/4", snap.Samples, len(snap.TimesMillis))
	}
	want := []int64{7, 8, 9, 10}
	got := snap.Series["g"]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrapped g series = %v, want %v", got, want)
		}
	}
}

// TestFlightLateSeriesBackfilled pins the alignment rule: a series first
// sampled mid-flight reads zero for the slots before it existed, keeping
// every series the same length as the timestamp window.
func TestFlightLateSeriesBackfilled(t *testing.T) {
	reg := New()
	reg.Gauge("early").Set(1)
	f := NewFlight(reg, FlightOptions{Cap: 8})
	f.Sample()
	f.Sample()
	reg.Gauge("late").Set(7)
	f.Sample()
	snap := f.Snapshot()
	late := snap.Series["late"]
	if len(late) != 3 || late[0] != 0 || late[1] != 0 || late[2] != 7 {
		t.Fatalf("late series = %v, want [0 0 7]", late)
	}
}

// TestFlightConcurrentReads hammers Snapshot from several goroutines while
// the sampler runs; the race detector is the assertion.
func TestFlightConcurrentReads(t *testing.T) {
	reg := New()
	g := reg.Gauge("g")
	f := NewFlight(reg, FlightOptions{Interval: 100 * time.Microsecond, Cap: 32})
	f.Start()
	defer f.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = f.Snapshot()
				g.Add(1)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if f.Samples() == 0 {
		t.Fatal("background sampler took no samples")
	}
}

// TestFlightHistogramProjection pins the integer projections VisitInts
// derives from each histogram: `<base>_count{labels}` and
// `<base>_sum_us{labels}` ride the flight window like any gauge, which is
// how per-group latency histograms reach /timeseries.
func TestFlightHistogramProjection(t *testing.T) {
	reg := New()
	h := reg.Histogram(Labeled("lat_seconds", "group", "2"), DurationBuckets)
	f := NewFlight(reg, FlightOptions{Cap: 4})
	h.Observe(0.001)
	h.Observe(0.002)
	f.Sample()
	snap := f.Snapshot()
	if got := snap.Series[`lat_seconds_count{group="2"}`]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("count series = %v, want [2]", got)
	}
	got := snap.Series[`lat_seconds_sum_us{group="2"}`]
	if len(got) != 1 || got[0] < 2900 || got[0] > 3100 {
		t.Fatalf("sum_us series = %v, want ~[3000]", got)
	}
}

// TestFlightSampleAllocFree proves the steady-state Sample path allocates
// nothing once every series has been seen: the recorder can run at a
// tight interval inside the soak harness without disturbing the
// zero-allocation hot-path guarantees of PR 2.
func TestFlightSampleAllocFree(t *testing.T) {
	reg := New()
	for i := 0; i < 8; i++ {
		reg.Gauge(Labeled("g", "node", string(rune('0'+i)))).Set(int64(i))
		reg.Counter(Labeled("c", "node", string(rune('0'+i)))).Inc()
		reg.Histogram(Labeled("h_seconds", "node", string(rune('0'+i))), DurationBuckets).Observe(0.001)
	}
	f := NewFlight(reg, FlightOptions{Cap: 16})
	f.Sample() // warm: series rings created here
	if got := testing.AllocsPerRun(100, f.Sample); got > 0 {
		t.Errorf("warmed Sample allocates %.2f/op, want 0", got)
	}
}

func TestFlightHandler(t *testing.T) {
	reg := New()
	reg.Gauge("g").Set(42)
	f := NewFlight(reg, FlightOptions{Cap: 4})
	f.Sample()
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/timeseries", nil))
	var snap FlightSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if got := snap.Series["g"]; len(got) != 1 || got[0] != 42 {
		t.Fatalf("g = %v", got)
	}
}
