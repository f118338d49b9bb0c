package health

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"urcgc/internal/mid"
	"urcgc/internal/rt"
)

// fresh returns group g's status at clock subrun now with every fact fresh:
// a decision just reached the member, and all it processed is stable.
func fresh(g uint32, now int64) rt.Status {
	return rt.Status{
		ID: 0, N: 3, Group: g, Running: true, Subrun: now,
		TokenSubrun: now, WaitingSince: now, StableSubrun: now, Declared: mid.None,
		Processed: mid.SeqVector{4, 4, 4}, StableTo: mid.SeqVector{4, 4, 4},
	}
}

// member wraps group statuses into member 0's document, at K = 4.
func member(groups ...rt.Status) rt.NodeStatus {
	return rt.NodeStatus{ID: 0, N: 3, K: 4, Groups: groups}
}

func rules(v GroupVerdict) []string {
	var out []string
	for _, r := range v.Reasons {
		out = append(out, r.Rule)
	}
	return out
}

// TestRulesFireAfterW is the rule table: each aged rule fires once its fact is
// W+1 clock subruns old and not at W, exclusion covers the W subruns after a
// declaration, and the gates hold — an empty waiting list or a frontier with
// nothing unstable never fires, however old the fact. Every row is judged as
// the only group of a member and as the last of three beside two fresh ones:
// the verdict is the same, and the member's reasons are that group's alone.
func TestRulesFireAfterW(t *testing.T) {
	const now = 1000
	aged := func(age int64) bool { return age > W }
	rows := []struct {
		name  string
		age   func(st *rt.Status, age int64)
		rule  string
		fires func(age int64) bool
	}{
		{"token-stall", func(st *rt.Status, a int64) { st.TokenSubrun = now - a }, "token-stall", aged},
		{"waiting-stuck", func(st *rt.Status, a int64) { st.WaitingLen, st.WaitingSince = 2, now-a }, "waiting-stuck", aged},
		{"frontier-lag", func(st *rt.Status, a int64) {
			st.StableTo, st.HistoryLen, st.StableSubrun = mid.SeqVector{4, 4, 1}, 3, now-a
		}, "frontier-lag", aged},
		{"exclusion", func(st *rt.Status, a int64) { st.Declared, st.DeclaredAt = 2, now-a }, "exclusion",
			func(age int64) bool { return age <= W }},
		{"left", func(st *rt.Status, a int64) { st.Running, st.TokenSubrun = false, now-a }, "left",
			func(int64) bool { return true }},
		{"nothing waiting", func(st *rt.Status, a int64) { st.WaitingSince = now - a }, "",
			func(int64) bool { return false }},
		{"nothing unstable", func(st *rt.Status, a int64) { st.StableSubrun = now - a }, "",
			func(int64) bool { return false }},
	}
	for _, r := range rows {
		for _, age := range []int64{W, W + 1} {
			var want []string
			if r.fires(age) {
				want = []string{r.rule}
			}
			for _, g := range []int{1, 3} {
				groups := make([]rt.Status, g)
				for i := range groups {
					groups[i] = fresh(uint32(i), now)
				}
				r.age(&groups[g-1], age)
				v := Judge(member(groups...))
				if got := rules(v.Groups[g-1]); !slices.Equal(got, want) || v.Groups[g-1].Healthy != (want == nil) {
					t.Errorf("%s, %d subruns old, G=%d: rules %v healthy=%v, want %v", r.name, age, g, got, v.Groups[g-1].Healthy, want)
				}
				if v.Healthy != (want == nil) || len(v.Reasons) != len(want) || len(v.Groups) != g {
					t.Errorf("%s, %d subruns old, G=%d: member verdict %+v", r.name, age, g, v)
				}
				for _, gr := range v.Reasons {
					if gr.Group != g-1 {
						t.Errorf("%s, G=%d: reason names group %d, want %d", r.name, g, gr.Group, g-1)
					}
				}
			}
		}
	}
	st := fresh(0, now)
	st.Declared, st.DeclaredAt = 2, now-3
	if v := Judge(member(st)); len(v.Reasons) != 1 || v.Reasons[0].Reason != "p2 suspected since subrun 993, declared crashed at 997" {
		t.Errorf("exclusion reason = %+v, want p2 suspected since T-K, declared at T", v.Reasons)
	}
}

// TestEvaluatorLifecycle walks one group through every aged rule in turn and
// back: a rule clears as soon as its fact is fresh again.
func TestEvaluatorLifecycle(t *testing.T) {
	st := fresh(0, 0)
	check := func(step string, want ...string) {
		t.Helper()
		if got := rules(Judge(member(st)).Groups[0]); !slices.Equal(got, want) {
			t.Fatalf("%s: rules %v, want %v", step, got, want)
		}
	}
	st.Subrun += W + 1
	check("token frozen", "token-stall")
	st.TokenSubrun = st.Subrun
	check("a decision arrives")

	st.WaitingLen, st.WaitingSince = 3, st.Subrun
	st.Subrun += W + 1
	st.TokenSubrun = st.Subrun
	check("waiting list never drains", "waiting-stuck")
	st.WaitingLen = 0
	check("waiting list drained")

	st.Processed, st.StableSubrun = mid.SeqVector{9, 9, 9}, st.Subrun
	check("messages unstable, stability advanced a moment ago")
	st.Subrun += W + 1
	st.TokenSubrun = st.Subrun
	check("frontier stalled with messages unstable", "frontier-lag")
	st.StableTo, st.StableSubrun = st.Processed.Clone(), st.Subrun
	check("frontier caught up")

	st.Declared, st.DeclaredAt = 1, st.Subrun
	check("peer declared", "exclusion")
	st.Subrun += W + 1
	st.TokenSubrun = st.Subrun
	check("declaration aged out")
}

// TestEvaluatorIdleIsHealthy: an idle group — decisions circulating, nothing
// waiting, everything stable — stays healthy however long its waiting and
// stability facts go unchanged.
func TestEvaluatorIdleIsHealthy(t *testing.T) {
	st := fresh(0, 0)
	for ; st.Subrun < 10*W; st.Subrun++ {
		st.TokenSubrun = st.Subrun
		if v := Judge(member(st)); !v.Healthy {
			t.Fatalf("idle group at subrun %d: %+v", st.Subrun, v.Reasons)
		}
	}
}

// TestJoiningSuppressesRules: a joiner's facts are frozen by the join itself
// — no decision reaches it before the transfer, its list waits on recovery,
// its frontier is the sponsor's — so it is healthy and says joining. Once
// admitted its facts restart and the rules are live again.
func TestJoiningSuppressesRules(t *testing.T) {
	st := fresh(1, 5*W)
	st.Joining = true
	st.TokenSubrun, st.WaitingSince, st.StableSubrun = 0, 0, 0
	st.WaitingLen, st.StableTo = 3, mid.SeqVector{1, 1, 1}
	v := Judge(member(fresh(0, 5*W), st))
	if !v.Healthy || !v.Joining || len(v.Reasons) != 0 || !v.Groups[1].Joining || v.Groups[0].Joining {
		t.Fatalf("joining member flagged: %+v", v)
	}

	// Admitted: the facts restart at the admitting subrun.
	st.Joining = false
	st.TokenSubrun, st.WaitingSince, st.StableSubrun = st.Subrun, st.Subrun, st.Subrun
	if v := Judge(member(st)); !v.Healthy || v.Joining {
		t.Fatalf("admitted member: %+v", v)
	}
	st.Subrun += W + 1
	if got := rules(Judge(member(st)).Groups[0]); !slices.Equal(got, []string{"token-stall", "waiting-stuck", "frontier-lag"}) {
		t.Fatalf("rules after admission = %v, want all three aged rules", got)
	}
}

// TestMultiEvaluatorIsolatesGroups stalls group 1's token while groups 0
// and 2 keep circulating decisions: the member must go unhealthy with
// exactly one {group, rule} triple, and recover with the group.
func TestMultiEvaluatorIsolatesGroups(t *testing.T) {
	groups := []rt.Status{fresh(0, 50), fresh(1, 50), fresh(2, 50)}
	groups[1].TokenSubrun = 50 - W - 1
	v := Judge(member(groups...))
	if v.Healthy || len(v.Reasons) != 1 || v.Reasons[0].Group != 1 || v.Reasons[0].Rule != "token-stall" {
		t.Fatalf("reasons = %+v, want one token-stall on group 1", v.Reasons)
	}
	for g, gv := range v.Groups {
		if gv.Group != g || gv.Healthy != (g != 1) {
			t.Fatalf("group %d verdict %+v", g, gv)
		}
	}
	groups[1].TokenSubrun = 50
	if v := Judge(member(groups...)); !v.Healthy {
		t.Fatalf("aggregate did not recover: %+v", v.Reasons)
	}
}

// TestHandlerStatusCodes drives the /healthz handler at G = 1 and G = 3: 200
// while every group's token circulates, 503 naming the last group once its
// token is W+1 subruns old — the same document at either G — and 503 when
// the status cannot be taken.
func TestHandlerStatusCodes(t *testing.T) {
	for _, g := range []int{1, 3} {
		groups := make([]rt.Status, g)
		for i := range groups {
			groups[i] = fresh(uint32(i), 100)
		}
		var err error
		h := Handler(func(context.Context) (rt.NodeStatus, error) { return member(groups...), err })
		get := func() (int, Status, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			var st Status
			_ = json.Unmarshal(rec.Body.Bytes(), &st)
			return rec.Code, st, rec.Body.String()
		}
		if code, st, body := get(); code != 200 || !st.Healthy || st.Node != 0 || len(st.Groups) != g {
			t.Fatalf("G=%d healthy: code %d, %s", g, code, body)
		}
		groups[g-1].TokenSubrun -= W + 1
		if code, st, body := get(); code != 503 || st.Healthy || len(st.Reasons) != 1 || st.Reasons[0].Group != g-1 {
			t.Fatalf("G=%d unhealthy: code %d, %s", g, code, body)
		}
		err = errors.New("status timed out")
		if code, _, body := get(); code != 503 || !strings.Contains(body, "status timed out") {
			t.Fatalf("G=%d without status: code %d, %s", g, code, body)
		}
	}
}
