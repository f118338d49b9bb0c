package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
)

func TestHistQuantilesAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	exact := make([]float64, 0, 50000)
	for i := 0; i < cap(exact); i++ {
		// Log-normal around 1 ms with a heavy tail, like a latency sample.
		v := int64(1e6 * math.Exp(rng.NormFloat64()))
		h.record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, want := h.quantile(q), quantileOf(exact, q)
		if rel := math.Abs(got-want) / want; rel > 1.0/histSub {
			t.Errorf("q%.2f: histogram %.0f, exact sort %.0f: off by %.2f%%, more than one bucket", q, got, want, 100*rel)
		}
	}
	if h.count() != int64(len(exact)) {
		t.Errorf("count %d, want %d", h.count(), len(exact))
	}
}

func TestHistBucketsCoverEveryValue(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 12345, 1<<62 + 1, math.MaxInt64} {
		i := histIndex(v)
		lo, width := histBounds(i)
		if v < lo || v-lo >= width {
			t.Errorf("value %d landed in bucket %d = [%d, %d+%d)", v, i, lo, lo, width)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestArrivalsRepeatForSeed(t *testing.T) {
	const strata, rate = 5, 10.0
	stratum := 3 * time.Second
	a := arrivals(42, 1, rate, 2*time.Second, stratum, strata)
	if !reflect.DeepEqual(a, arrivals(42, 1, rate, 2*time.Second, stratum, strata)) {
		t.Fatal("same seed and member gave different schedules")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("schedule is not in due order")
	}
	// Every seed offers every slice the same load: rate x stratum arrivals.
	per := make([]int, strata)
	for _, off := range a {
		per[(off-2*time.Second)/stratum]++
	}
	for i, n := range per {
		if n != 30 {
			t.Errorf("stratum %d has %d arrivals, want 30", i, n)
		}
	}
	if reflect.DeepEqual(a, arrivals(42, 2, rate, 2*time.Second, stratum, strata)) {
		t.Error("members 1 and 2 share a schedule")
	}
	if reflect.DeepEqual(a, arrivals(43, 1, rate, 2*time.Second, stratum, strata)) {
		t.Error("seeds 42 and 43 share a schedule")
	}
}

// The open loop charges a send from the instant it was due, so what fire
// sees must be the schedule itself, however late the generator runs.
func TestRunScheduleFiresWithDueTimes(t *testing.T) {
	start := time.Now().Add(-time.Second) // every arrival is already overdue
	sched := []time.Duration{0, 3 * time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond}
	var got []time.Duration
	runSchedule(start, sched, new(atomic.Bool), func(due time.Time) { got = append(got, due.Sub(start)) })
	if !reflect.DeepEqual(got, sched) {
		t.Errorf("fired with %v, want the due offsets %v", got, sched)
	}
}

func TestDrillCountsRepeatForSeed(t *testing.T) {
	for _, name := range []string{"lan_saturated", "mesh_faulty"} {
		w, _ := workloadByName(name)
		w.drillSubruns = 200
		a, err := runDrill(&w, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runDrill(&w, 5)
		if err != nil {
			t.Fatal(err)
		}
		if a.Counts != b.Counts {
			t.Errorf("%s: counts differ for one seed:\n%+v\n%+v", name, a.Counts, b.Counts)
		}
		if a.Counts.Processed != a.Counts.Submitted*w.n {
			t.Errorf("%s: %d submitted at %d members but %d processed", name, a.Counts.Submitted, w.n, a.Counts.Processed)
		}
		if name == "mesh_faulty" && a.Counts.Dropped == 0 {
			t.Errorf("%s: the drill dropped nothing at a 1%% drop rate over %d deliveries", name, a.Counts.Deliveries)
		}
	}
}

// benchmarkJSON is ../BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []spec                                `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nendToEndSpecs:\n%+v", b.EndToEnd, endToEndSpecs)
	}
	var ws []workload
	for _, w := range workloads() {
		if w.gated {
			ws = append(ws, w)
		}
	}
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the harness", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their reasons differ)", i, b.Workloads[i].Name, w.name)
		}
	}
}

// smokeOptions is -smoke: 1 s measured, short warm-up, one set-up.
func smokeOptions(t *testing.T, trace bool) options {
	return options{seed: 1, seconds: 1, warmup: 300 * time.Millisecond, setups: 1, trace: trace, outDir: t.TempDir()}
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Every workload must finish a smoke run with no failed send and both
// invariants intact, and the two passes must print exactly the metrics
// BENCHMARK.json names. No timing is asserted.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	var endToEnd, perLayer []string
	for _, s := range b.EndToEnd {
		endToEnd = append(endToEnd, s.Name)
	}
	for _, s := range b.PerLayer {
		perLayer = append(perLayer, s.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, w := range workloads() {
		traced := w.name == "mesh_faulty" // one traced pass covers the per-layer names
		rep, err := measure(w, smokeOptions(t, traced))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed != 0 || !rep.Correct || len(rep.Violations) != 0 {
			t.Errorf("%s: failed=%d of %d correct=%v violations=%v lost=%q", w.name, rep.Failed, rep.Attempted,
				rep.Correct, rep.Violations, rep.MembersLost)
		}
		want := endToEnd
		if traced {
			want = perLayer
			if _, err := os.Stat(rep.SpanFile); err != nil {
				t.Errorf("%s: span file: %v", w.name, err)
			}
		}
		if got := metricNames(rep.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s trace=%v prints\n%v\nBENCHMARK.json names\n%v", w.name, traced, got, want)
		}
	}
}

// auditBoth feeds the same per-member streams to the streaming audit and to
// faultrt.Checker and reports whether each found the run clean.
func auditBoth(n int, streams [][]*causal.Message) (streamClean, checkerClean bool) {
	audits := make([]*streamAudit, len(streams))
	checker := faultrt.NewChecker()
	survivors := make([]mid.ProcID, len(streams))
	breaches := 0
	for i, s := range streams {
		audits[i] = newStreamAudit(n)
		survivors[i] = mid.ProcID(i)
		for _, m := range s {
			audits[i].record(i, m)
			checker.Record(mid.ProcID(i), m)
		}
		breaches += audits[i].breaches
	}
	return breaches+len(atomicViolations(audits, survivors)) == 0, len(checker.Check(survivors)) == 0
}

func TestStreamAuditAgreesWithChecker(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(11))
	// One causal order: each message depends on the latest message seen
	// from another sender, as SendCausal labels it.
	var order []*causal.Message
	last := mid.NewSeqVector(n)
	for i := 0; i < 300; i++ {
		p := mid.ProcID(rng.Intn(n))
		last[p]++
		m := &causal.Message{ID: mid.MID{Proc: p, Seq: last[p]}}
		if q := mid.ProcID(rng.Intn(n)); q != p && last[q] > 0 {
			m.Deps = mid.DepList{{Proc: q, Seq: last[q]}}
		}
		order = append(order, m)
	}
	clone := func() [][]*causal.Message {
		out := make([][]*causal.Message, n)
		for i := range out {
			out[i] = append([]*causal.Message(nil), order...)
		}
		return out
	}
	cases := map[string]func(s [][]*causal.Message) [][]*causal.Message{
		"clean": func(s [][]*causal.Message) [][]*causal.Message { return s },
		"one member stops short": func(s [][]*causal.Message) [][]*causal.Message {
			s[1] = s[1][:len(s[1])-5]
			return s
		},
		"a message indicated twice": func(s [][]*causal.Message) [][]*causal.Message {
			s[2] = append(s[2][:50:50], append([]*causal.Message{s[2][49]}, s[2][50:]...)...)
			return s
		},
		"a dependency indicated after its dependent": func(s [][]*causal.Message) [][]*causal.Message {
			for i, m := range s[0] {
				if len(m.Deps) == 0 {
					continue
				}
				for j := 0; j < i; j++ {
					if s[0][j].ID == m.Deps[0] {
						s[0][i], s[0][j] = s[0][j], s[0][i]
						return s
					}
				}
			}
			panic("no dependency to reorder")
		},
	}
	for name, mutate := range cases {
		streamClean, checkerClean := auditBoth(n, mutate(clone()))
		if streamClean != checkerClean {
			t.Errorf("%s: streaming audit clean=%v, faultrt.Checker clean=%v", name, streamClean, checkerClean)
		}
		if (name == "clean") != checkerClean {
			t.Errorf("%s: faultrt.Checker clean=%v", name, checkerClean)
		}
	}
}

func TestVerdictOf(t *testing.T) {
	lower := spec{"confirm_p50_ms", "ms", "lower", 0.10}
	higher := spec{"confirmed_msgs_s", "msgs/s", "higher", 0.05}
	steady := func(med float64) stat {
		return stat{Median: med, Q1: med * 0.99, Q3: med * 1.01, Values: []float64{med * 0.99, med, med * 1.01}}
	}
	noisy := stat{Median: 10, Q1: 8, Q3: 12, Values: []float64{8, 10, 12}}
	for _, c := range []struct {
		sp   spec
		b, c stat
		want string
	}{
		{lower, steady(10), steady(10.9), "ok"},
		{lower, steady(10), steady(11.1), "worse"},
		{lower, steady(10), steady(5), "ok"},
		{higher, steady(100), steady(96), "ok"},
		{higher, steady(100), steady(94), "worse"},
		{lower, noisy, steady(10), "unresolved"},
		{lower, steady(10), noisy, "unresolved"},
	} {
		if got := verdictOf(c.sp, c.b, c.c); got != c.want {
			t.Errorf("%s %.1f -> %.1f: %s, want %s", c.sp.Name, c.b.Median, c.c.Median, got, c.want)
		}
	}
}
