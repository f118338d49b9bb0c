package health

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"

	"urcgc/internal/obs"
)

func TestTokenStalled(t *testing.T) {
	cases := []struct {
		name   string
		series []int64
		window int
		want   bool
	}{
		{"too few samples", []int64{5, 5, 5}, 4, false},
		{"frozen for window", []int64{4, 5, 5, 5, 5}, 4, true},
		{"advancing", []int64{5, 6, 7, 8}, 4, false},
		{"advance inside window", []int64{5, 5, 6, 6}, 4, false},
		{"recovered after stall", []int64{5, 5, 5, 5, 6}, 4, false},
		{"exactly window frozen", []int64{9, 9, 9, 9}, 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := tokenStalled(c.series, c.window); got != c.want {
				t.Errorf("tokenStalled(%v, %d) = %v, want %v", c.series, c.window, got, c.want)
			}
		})
	}
}

func TestGrowingMonotonically(t *testing.T) {
	cases := []struct {
		name   string
		series []int64
		window int
		min    int64
		want   bool
	}{
		{"too few samples", []int64{0, 10, 20}, 4, 10, false},
		{"unbounded growth", []int64{0, 10, 20, 40}, 4, 10, true},
		{"growth below min", []int64{0, 1, 2, 3}, 4, 10, false},
		{"sawtooth (cleaned)", []int64{0, 30, 5, 40}, 4, 10, false},
		{"flat idle", []int64{7, 7, 7, 7}, 4, 10, false},
		{"recovery: cleaning resumed", []int64{0, 10, 20, 40, 2}, 4, 10, false},
		{"growth at exactly min", []int64{0, 4, 8, 10}, 4, 10, true},
		{"plateau then growth", []int64{5, 5, 5, 16}, 4, 11, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := growingMonotonically(c.series, c.window, c.min); got != c.want {
				t.Errorf("growingMonotonically(%v, %d, %d) = %v, want %v", c.series, c.window, c.min, got, c.want)
			}
		})
	}
}

func TestStuckNonEmpty(t *testing.T) {
	cases := []struct {
		name   string
		series []int64
		window int
		want   bool
	}{
		{"too few samples", []int64{1, 1}, 3, false},
		{"never drains", []int64{2, 1, 3}, 3, true},
		{"drained mid-window", []int64{2, 0, 3}, 3, false},
		{"recovery: drained at end", []int64{2, 1, 3, 0}, 3, false},
		{"empty throughout", []int64{0, 0, 0}, 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := stuckNonEmpty(c.series, c.window); got != c.want {
				t.Errorf("stuckNonEmpty(%v, %d) = %v, want %v", c.series, c.window, got, c.want)
			}
		})
	}
}

// groupGauges are the instruments the rules read for one hosted group.
type groupGauges struct {
	decision, history, waiting, stable, joining *obs.Gauge
	processed                                   *obs.Counter
}

// evalHarness drives a Flight deterministically for one member's series;
// the embedded groupGauges are group 0's, so single-group tests name them
// directly.
type evalHarness struct {
	flight *obs.Flight
	eval   *Evaluator
	groups []groupGauges
	groupGauges
}

func newEvalHarness(t *testing.T, groups int, th Thresholds) *evalHarness {
	t.Helper()
	reg := obs.New()
	f := obs.NewFlight(reg, obs.FlightOptions{Cap: 64})
	h := &evalHarness{flight: f, eval: New(f, "0", groups, th)}
	for g := 0; g < groups; g++ {
		l := func(name string) string { return obs.Labeled(name, "node", "0", "group", strconv.Itoa(g)) }
		h.groups = append(h.groups, groupGauges{
			decision:  reg.Gauge(l("core_decision_subrun")),
			history:   reg.Gauge(l("core_history_len")),
			waiting:   reg.Gauge(l("core_waiting_len")),
			processed: reg.Counter(l("rt_processed_total")),
			stable:    reg.Gauge(l("core_stable_sum")),
			joining:   reg.Gauge(l("core_joining")),
		})
	}
	h.groupGauges = h.groups[0]
	return h
}

// tick advances the simulated node one sample: a healthy node's decision
// subrun advances and its stability frontier tracks its processed count.
func (h *evalHarness) tickHealthy() {
	h.decision.Add(1)
	h.processed.Add(2)
	h.stable.Set(h.processed.Value())
	h.flight.Sample()
}

func reasons(st Status) []string {
	out := make([]string, 0, len(st.Reasons))
	for _, r := range st.Reasons {
		out = append(out, r.Rule)
	}
	return out
}

func hasRule(st Status, rule string) bool {
	for _, r := range st.Reasons {
		if r.Rule == rule {
			return true
		}
	}
	return false
}

// TestEvaluatorLifecycle walks one node through warm-up, health, every
// failure mode, and recovery back to healthy.
func TestEvaluatorLifecycle(t *testing.T) {
	th := Thresholds{
		TokenStallSamples:   4,
		HistoryWindow:       4,
		HistoryGrowthMin:    8,
		WaitingStuckSamples: 4,
		FrontierLagWindow:   4,
		FrontierLagMin:      6,
	}
	h := newEvalHarness(t, 1, th)

	// Warming up: no samples at all is healthy.
	if st := h.eval.Eval(); !st.Healthy || st.Samples != 0 {
		t.Fatalf("empty flight: %+v", st)
	}

	// Healthy steady state.
	for i := 0; i < 8; i++ {
		h.tickHealthy()
	}
	if st := h.eval.Eval(); !st.Healthy {
		t.Fatalf("healthy node flagged: %v", reasons(st))
	}

	// Token stall: decision subrun freezes while samples keep coming.
	for i := 0; i < 4; i++ {
		h.flight.Sample()
	}
	st := h.eval.Eval()
	if st.Healthy || !hasRule(st, "token-stall") {
		t.Fatalf("frozen token not flagged: %+v", st)
	}
	// Recovery: one fresh decision clears it.
	h.tickHealthy()
	if st := h.eval.Eval(); hasRule(st, "token-stall") {
		t.Fatalf("token-stall did not recover: %+v", st)
	}

	// History growth: monotone climb past the minimum with no cleaning.
	for i := 0; i < 4; i++ {
		h.history.Add(3)
		h.tickHealthy()
	}
	st = h.eval.Eval()
	if st.Healthy || !hasRule(st, "history-growth") {
		t.Fatalf("unbounded history not flagged: %+v", st)
	}
	// Recovery: stability cleaning shrinks the buffer.
	h.history.Set(1)
	h.tickHealthy()
	if st := h.eval.Eval(); hasRule(st, "history-growth") {
		t.Fatalf("history-growth did not recover: %+v", st)
	}

	// Waiting-stuck: the waiting list stays non-empty a full window.
	h.waiting.Set(2)
	for i := 0; i < 4; i++ {
		h.tickHealthy()
	}
	st = h.eval.Eval()
	if st.Healthy || !hasRule(st, "waiting-stuck") {
		t.Fatalf("stuck waiting list not flagged: %+v", st)
	}
	h.waiting.Set(0)
	h.tickHealthy()
	if st := h.eval.Eval(); hasRule(st, "waiting-stuck") {
		t.Fatalf("waiting-stuck did not recover: %+v", st)
	}

	// Frontier lag: processing continues but stability stops advancing.
	for i := 0; i < 4; i++ {
		h.decision.Add(1)
		h.processed.Add(2) // stable stays put: the gap grows 2 per sample
		h.flight.Sample()
	}
	st = h.eval.Eval()
	if st.Healthy || !hasRule(st, "frontier-lag") {
		t.Fatalf("lagging frontier not flagged: %+v", st)
	}
	// Recovery: a full-group decision catches the frontier up.
	h.stable.Set(h.processed.Value())
	h.flight.Sample()
	if st := h.eval.Eval(); !st.Healthy {
		t.Fatalf("node did not return to healthy: %v", reasons(st))
	}
}

// TestEvaluatorIdleIsHealthy pins that a quiescent node — flat series,
// no traffic, token still advancing — stays healthy forever.
func TestEvaluatorIdleIsHealthy(t *testing.T) {
	h := newEvalHarness(t, 1, Thresholds{
		TokenStallSamples: 4, HistoryWindow: 4, HistoryGrowthMin: 8,
		WaitingStuckSamples: 4, FrontierLagWindow: 4, FrontierLagMin: 6,
	})
	for i := 0; i < 12; i++ {
		h.decision.Add(1) // rounds keep running; no user traffic
		h.flight.Sample()
	}
	if st := h.eval.Eval(); !st.Healthy {
		t.Fatalf("idle node flagged: %v", reasons(st))
	}
}

// TestJoiningSuppressesRules pins the join grace window: while the
// member is state-transferring (and for one full rule window after), the
// evaluator reports joining instead of firing rules on series the join
// legitimately freezes — /healthz must not flap 503 across a restart.
func TestJoiningSuppressesRules(t *testing.T) {
	th := Thresholds{
		TokenStallSamples: 4, HistoryWindow: 4, HistoryGrowthMin: 8,
		WaitingStuckSamples: 4, FrontierLagWindow: 4, FrontierLagMin: 6,
	}
	h := newEvalHarness(t, 1, th)
	for i := 0; i < 6; i++ {
		h.tickHealthy()
	}

	// The joiner's token freezes and its waiting list fills — exactly the
	// evidence token-stall and waiting-stuck fire on. Joining wins.
	h.joining.Set(1)
	h.waiting.Set(3)
	for i := 0; i < 6; i++ {
		h.flight.Sample()
	}
	st := h.eval.Eval()
	if !st.Joining || !st.Healthy || len(st.Reasons) != 0 {
		t.Fatalf("joining member flagged: %+v", st)
	}

	// Join completed: the gauge clears but stale pre-join samples are
	// still inside the window — the grace period holds.
	h.joining.Set(0)
	h.waiting.Set(0)
	h.tickHealthy()
	st = h.eval.Eval()
	if !st.Joining || !st.Healthy {
		t.Fatalf("grace window did not hold just after join: %+v", st)
	}

	// A full window of clear samples later the rules are live again.
	for i := 0; i < 4; i++ {
		h.tickHealthy()
	}
	if st := h.eval.Eval(); st.Joining || !st.Healthy {
		t.Fatalf("rules did not resume after grace window: %+v", st)
	}
	for i := 0; i < 4; i++ {
		h.flight.Sample() // freeze the token for real this time
	}
	st = h.eval.Eval()
	if st.Joining || st.Healthy || !hasRule(st, "token-stall") {
		t.Fatalf("post-join stall not flagged: %+v", st)
	}
}

// TestMultiEvaluatorIsolatesGroups stalls group 1's token while groups 0
// and 2 keep circulating decisions: the member must go unhealthy with
// exactly one {group, rule} triple, and per-group verdicts must disagree.
func TestMultiEvaluatorIsolatesGroups(t *testing.T) {
	h := newEvalHarness(t, 3, Thresholds{TokenStallSamples: 4})
	for i := 0; i < 8; i++ {
		h.groups[0].decision.Add(1)
		if i < 3 {
			h.groups[1].decision.Add(1) // group 1's token freezes after sample 3
		}
		h.groups[2].decision.Add(1)
		h.flight.Sample()
	}
	st := h.eval.Eval()
	if st.Healthy {
		t.Fatalf("stalled group not flagged: %+v", st)
	}
	if len(st.Reasons) != 1 || st.Reasons[0].Group != 1 || st.Reasons[0].Rule != "token-stall" {
		t.Fatalf("reasons = %+v, want one token-stall on group 1", st.Reasons)
	}
	if len(st.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(st.Groups))
	}
	for g, gs := range st.Groups {
		if gs.Group != g {
			t.Fatalf("group %d verdict carries tag %d", g, gs.Group)
		}
		if wantHealthy := g != 1; gs.Healthy != wantHealthy {
			t.Fatalf("group %d healthy = %v, want %v", g, gs.Healthy, wantHealthy)
		}
	}

	// Recovery: the partitioned group's token resumes.
	h.groups[1].decision.Add(1)
	h.flight.Sample()
	if st := h.eval.Eval(); !st.Healthy {
		t.Fatalf("aggregate did not recover: %+v", st.Reasons)
	}
}

// TestHandlerStatusCodes drives the one /healthz handler at G = 1 and
// G = 2: 200 while every group's token circulates, 503 naming the last
// group once its token freezes — the same document at either G.
func TestHandlerStatusCodes(t *testing.T) {
	for _, groups := range []int{1, 2} {
		h := newEvalHarness(t, groups, Thresholds{TokenStallSamples: 3})
		get := func() (int, Status) {
			rec := httptest.NewRecorder()
			h.eval.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("G=%d body: %v %s", groups, err, rec.Body.String())
			}
			return rec.Code, st
		}
		for i := 0; i < 4; i++ {
			for _, g := range h.groups {
				g.decision.Add(1)
			}
			h.flight.Sample()
		}
		if code, st := get(); code != 200 || !st.Healthy || st.Node != "0" || len(st.Groups) != groups {
			t.Fatalf("G=%d healthy: code %d, %+v", groups, code, st)
		}
		for i := 0; i < 3; i++ {
			for _, g := range h.groups[:groups-1] {
				g.decision.Add(1) // the last group's token is frozen
			}
			h.flight.Sample()
		}
		code, st := get()
		if code != 503 || st.Healthy || len(st.Reasons) != 1 || st.Reasons[0].Group != groups-1 {
			t.Fatalf("G=%d unhealthy: code %d, %+v", groups, code, st)
		}
	}
}

func TestThresholdDefaults(t *testing.T) {
	th := Thresholds{}.withDefaults()
	if th != DefaultThresholds {
		t.Fatalf("zero thresholds = %+v, want defaults %+v", th, DefaultThresholds)
	}
	custom := Thresholds{TokenStallSamples: 3}.withDefaults()
	if custom.TokenStallSamples != 3 || custom.HistoryWindow != DefaultThresholds.HistoryWindow {
		t.Fatalf("partial thresholds = %+v", custom)
	}
}
