// Package health evaluates one member's protocol health from the flight
// recorder's gauge time series. The unit of agreement is the group, so the
// rules run once per hosted group over that group's {node, group}-labelled
// series, and the member is healthy iff every group it hosts is — a
// partition that stalls one group's token degrades exactly that group's
// verdict. Each rule turns a paper claim into a runtime check over a sample
// window:
//
//   - token-stall: the rotating-coordinator scheme means decisions keep
//     arriving with fresh subrun stamps; a frozen core_decision_subrun
//     says the token stopped reaching this node (Section 4's reliable
//     circulation of decisions has broken down for it).
//   - history-growth: Figure 6's claim that history buffers stay bounded
//     because stability keeps cleaning them; a monotonically growing
//     core_history_len says cleaning has stopped.
//   - waiting-stuck: causal delivery means waiting messages drain once
//     dependencies arrive (recovered from history if need be); a
//     persistently non-empty waiting list says recovery is not closing
//     gaps.
//   - frontier-lag: Section 5's bounded stability time; a monotonically
//     growing gap between messages processed and messages uniformly
//     stable says full-group decisions have stopped covering the group.
//
// Rules fire only on evidence spanning a full window; a group with too few
// samples is healthy ("warming up"). All rules recover: one sample of
// progress resets the window.
package health

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"urcgc/internal/obs"
)

// Thresholds tune the health rules. Zero values select the defaults.
type Thresholds struct {
	// TokenStallSamples is how many consecutive samples the freshest
	// decision subrun may stay frozen before the token counts as stalled.
	TokenStallSamples int
	// HistoryWindow is the sample window for the history-growth rule.
	HistoryWindow int
	// HistoryGrowthMin is the minimum history-length growth across a
	// never-shrinking window for the rule to fire (filters flat idle).
	HistoryGrowthMin int64
	// WaitingStuckSamples is how many consecutive samples the waiting
	// list may stay non-empty before messages count as stuck.
	WaitingStuckSamples int
	// FrontierLagWindow is the sample window for the frontier-lag rule.
	FrontierLagWindow int
	// FrontierLagMin is the minimum growth of processed-minus-stable
	// across a never-shrinking window for the rule to fire.
	FrontierLagMin int64
}

// DefaultThresholds are tuned for sampling intervals in the 10ms–1s
// range: a rule needs roughly a dozen intervals of sustained evidence.
var DefaultThresholds = Thresholds{
	TokenStallSamples:   12,
	HistoryWindow:       20,
	HistoryGrowthMin:    32,
	WaitingStuckSamples: 20,
	FrontierLagWindow:   20,
	FrontierLagMin:      16,
}

func (t Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds
	if t.TokenStallSamples <= 0 {
		t.TokenStallSamples = d.TokenStallSamples
	}
	if t.HistoryWindow <= 0 {
		t.HistoryWindow = d.HistoryWindow
	}
	if t.HistoryGrowthMin <= 0 {
		t.HistoryGrowthMin = d.HistoryGrowthMin
	}
	if t.WaitingStuckSamples <= 0 {
		t.WaitingStuckSamples = d.WaitingStuckSamples
	}
	if t.FrontierLagWindow <= 0 {
		t.FrontierLagWindow = d.FrontierLagWindow
	}
	if t.FrontierLagMin <= 0 {
		t.FrontierLagMin = d.FrontierLagMin
	}
	return t
}

// Reason is one machine-readable explanation of an unhealthy verdict.
type Reason struct {
	// Rule names the check that fired: "token-stall", "history-growth",
	// "waiting-stuck" or "frontier-lag".
	Rule string `json:"rule"`
	// Detail is a human-readable elaboration with the numbers.
	Detail string `json:"detail"`
}

// GroupVerdict is what the rules say about one hosted group.
type GroupVerdict struct {
	Group   int      `json:"group"`
	Healthy bool     `json:"healthy"`
	Reasons []Reason `json:"reasons,omitempty"`
	// Joining reports that the member is (or very recently was)
	// state-transferring into the group: the rules are suppressed for a
	// full window because a joiner legitimately freezes the series they
	// watch (no decisions reach it pre-sync, its history installs in one
	// jump, its frontier is the sponsor's).
	Joining bool `json:"joining,omitempty"`
}

// GroupReason is one unhealthy-group explanation in a member's verdict:
// the {group, rule, reason} triple /healthz lists on a 503.
type GroupReason struct {
	Group  int    `json:"group"`
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
}

// Status is one member's health verdict, the JSON shape of /healthz: the
// member is healthy iff every hosted group is. Groups carries the per-group
// verdicts; Reasons flattens every firing rule with its group.
type Status struct {
	Node    string         `json:"node"`
	Healthy bool           `json:"healthy"`
	Samples int64          `json:"samples"`
	Groups  []GroupVerdict `json:"groups"`
	Reasons []GroupReason  `json:"reasons,omitempty"`
	// Joining reports that at least one hosted group is still inside its
	// join grace window (see GroupVerdict).
	Joining bool `json:"joining,omitempty"`
}

// tokenStalled reports whether the last window values are present and
// all identical: the freshest decision's subrun stopped moving.
func tokenStalled(decisionSubrun []int64, window int) bool {
	if len(decisionSubrun) < window {
		return false
	}
	tail := decisionSubrun[len(decisionSubrun)-window:]
	for _, v := range tail[1:] {
		if v != tail[0] {
			return false
		}
	}
	return true
}

// growingMonotonically reports whether the last window values never
// decrease and grow by at least min overall — the shape of an unbounded
// buffer, as opposed to the sawtooth of a cleaned one or a flat idle one.
func growingMonotonically(vals []int64, window int, min int64) bool {
	if len(vals) < window {
		return false
	}
	tail := vals[len(vals)-window:]
	for i := 1; i < len(tail); i++ {
		if tail[i] < tail[i-1] {
			return false
		}
	}
	return tail[len(tail)-1]-tail[0] >= min
}

// stuckNonEmpty reports whether the last window values are all positive:
// the waiting list never drained.
func stuckNonEmpty(vals []int64, window int) bool {
	if len(vals) < window {
		return false
	}
	for _, v := range vals[len(vals)-window:] {
		if v <= 0 {
			return false
		}
	}
	return true
}

// Evaluator applies the rules to every hosted group of one member. Safe for
// concurrent use (the HTTP handler may race a poller).
type Evaluator struct {
	flight *obs.Flight
	node   string
	th     Thresholds

	mu                 sync.Mutex
	bufA, bufB, bufLag []int64
	groups             []groupSeries
}

// groupSeries holds one group's pre-composed series names (label order
// matches the rt instruments: node first, then group).
type groupSeries struct {
	decision, history, waiting, processed, stable, joining string
}

// New builds the evaluator of the member with the given "node" label value
// (e.g. "0") hosting groups 0..groups-1, over the member's flight recorder.
func New(f *obs.Flight, node string, groups int, th Thresholds) *Evaluator {
	e := &Evaluator{flight: f, node: node, th: th.withDefaults()}
	for g := 0; g < groups; g++ {
		l := func(name string) string { return obs.Labeled(name, "node", node, "group", strconv.Itoa(g)) }
		e.groups = append(e.groups, groupSeries{
			decision:  l("core_decision_subrun"),
			history:   l("core_history_len"),
			waiting:   l("core_waiting_len"),
			processed: l("rt_processed_total"),
			stable:    l("core_stable_sum"),
			joining:   l("core_joining"),
		})
	}
	return e
}

// Eval applies every group's rules to the current flight window.
func (e *Evaluator) Eval() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{Node: e.node, Samples: e.flight.Samples()}
	for g := range e.groups {
		gs := e.evalGroup(g)
		st.Joining = st.Joining || gs.Joining
		for _, r := range gs.Reasons {
			st.Reasons = append(st.Reasons, GroupReason{Group: g, Rule: r.Rule, Reason: r.Detail})
		}
		st.Groups = append(st.Groups, gs)
	}
	st.Healthy = len(st.Reasons) == 0
	return st
}

// evalGroup applies the rules to one group's series. Caller holds e.mu.
func (e *Evaluator) evalGroup(g int) GroupVerdict {
	s := &e.groups[g]
	st := GroupVerdict{Group: g, Healthy: true}

	// The widest window any rule needs bounds every Tail read.
	max := e.th.TokenStallSamples
	for _, w := range []int{e.th.HistoryWindow, e.th.WaitingStuckSamples, e.th.FrontierLagWindow} {
		if w > max {
			max = w
		}
	}

	// Join grace window: a state-transferring member freezes exactly the
	// series the rules watch (no decisions pre-sync, history installed in
	// one jump, frontier borrowed from the sponsor). While any sample in
	// the widest rule window still shows core_joining set, report the
	// join instead of false alarms; once the gauge has been clear for a
	// full window the rules resume on post-join evidence only.
	e.bufA = e.flight.Tail(s.joining, e.bufA[:0], max)
	for _, v := range e.bufA {
		if v != 0 {
			st.Joining = true
			return st
		}
	}

	e.bufA = e.flight.Tail(s.decision, e.bufA[:0], max)
	if tokenStalled(e.bufA, e.th.TokenStallSamples) {
		st.Reasons = append(st.Reasons, Reason{
			Rule: "token-stall",
			Detail: fmt.Sprintf("no fresh decision: core_decision_subrun frozen at %d for %d samples",
				e.bufA[len(e.bufA)-1], e.th.TokenStallSamples),
		})
	}

	e.bufA = e.flight.Tail(s.history, e.bufA[:0], max)
	if growingMonotonically(e.bufA, e.th.HistoryWindow, e.th.HistoryGrowthMin) {
		st.Reasons = append(st.Reasons, Reason{
			Rule: "history-growth",
			Detail: fmt.Sprintf("history buffer grew %d→%d without cleaning over %d samples (Fig. 6 bound at risk)",
				e.bufA[len(e.bufA)-e.th.HistoryWindow], e.bufA[len(e.bufA)-1], e.th.HistoryWindow),
		})
	}

	e.bufA = e.flight.Tail(s.waiting, e.bufA[:0], max)
	if stuckNonEmpty(e.bufA, e.th.WaitingStuckSamples) {
		st.Reasons = append(st.Reasons, Reason{
			Rule: "waiting-stuck",
			Detail: fmt.Sprintf("waiting list non-empty (now %d) for %d consecutive samples",
				e.bufA[len(e.bufA)-1], e.th.WaitingStuckSamples),
		})
	}

	e.bufA = e.flight.Tail(s.processed, e.bufA[:0], max)
	e.bufB = e.flight.Tail(s.stable, e.bufB[:0], max)
	if len(e.bufA) == len(e.bufB) {
		e.bufLag = e.bufLag[:0]
		for i := range e.bufA {
			e.bufLag = append(e.bufLag, e.bufA[i]-e.bufB[i])
		}
		if growingMonotonically(e.bufLag, e.th.FrontierLagWindow, e.th.FrontierLagMin) {
			st.Reasons = append(st.Reasons, Reason{
				Rule: "frontier-lag",
				Detail: fmt.Sprintf("stability frontier falling behind: processed-stable gap grew to %d over %d samples",
					e.bufLag[len(e.bufLag)-1], e.th.FrontierLagWindow),
			})
		}
	}

	st.Healthy = len(st.Reasons) == 0
	return st
}

// Handler serves the verdict as JSON (the /healthz endpoint): 200 when every
// group is healthy, 503 listing the {group, rule, reason} triples when any
// is not.
func (e *Evaluator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		st := e.Eval()
		w.Header().Set("Content-Type", "application/json")
		if !st.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(st)
	})
}
