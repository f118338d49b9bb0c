// Package health judges one member's protocol health from its own status:
// the facts each hosted group's core.Process keeps in clock subruns, the
// protocol's unit of time. The unit of agreement is the group, so the rules
// run once per hosted group, and the member is healthy iff every group it
// hosts is — a partition that stalls one group's token degrades exactly that
// group's verdict. Every rule has the one horizon W:
//
//   - token-stall: every subrun's coordinator circulates a decision, so one
//     reaches each member at least once per rotation; none for more than W
//     subruns says the circulation of Section 4 no longer reaches this one.
//   - waiting-stuck: causal delivery drains the waiting list once the
//     dependencies arrive, recovered from history if need be; a list
//     non-empty for more than W subruns says recovery is not closing gaps.
//   - frontier-lag: stability is what cleans history (Figure 6); messages
//     processed but not stable while the watermark has not moved for more
//     than W subruns say full-group decisions have stopped covering the
//     group, and the history grows.
//   - exclusion: for W subruns after this member's view declared a peer
//     crashed — the silence the decisions counted for K subruns, Lemma 4.1.
//   - left: the member no longer runs the protocol in the group.
//
// A member still joining is healthy and reports joining: its facts restart
// when a decision admits it. The facts and their age are both counted on the
// member's own clock, so wall time passes unjudged: a killed member, whose
// clock stops with its facts, ages none of them.
package health

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"urcgc/internal/mid"
	"urcgc/internal/rt"
)

// W is the horizon of every rule, in clock subruns. Not 2K+f: the fault
// plans that test the rules keep every fault shorter than K subruns, so a
// rule at the paper's bounds would never fire on them. 32 subruns is
// 128 ms at the 2 ms rounds of an in-process cluster, 1.28 s at the 20 ms
// default over sockets.
const W = 32

// Reason is one machine-readable explanation of an unhealthy verdict.
type Reason struct {
	// Rule names the check that fired: "token-stall", "waiting-stuck",
	// "frontier-lag", "exclusion" or "left".
	Rule string `json:"rule"`
	// Detail is a human-readable elaboration with the numbers.
	Detail string `json:"detail"`
}

// GroupVerdict is what the rules say about one hosted group.
type GroupVerdict struct {
	Group   int      `json:"group"`
	Healthy bool     `json:"healthy"`
	Reasons []Reason `json:"reasons,omitempty"`
	// Joining reports that the member is state-transferring into the group:
	// the rules wait for the admission that restarts its facts.
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
	Node    mid.ProcID     `json:"node"`
	Healthy bool           `json:"healthy"`
	Groups  []GroupVerdict `json:"groups"`
	Reasons []GroupReason  `json:"reasons,omitempty"`
	// Joining reports that at least one hosted group is still joining.
	Joining bool `json:"joining,omitempty"`
}

// Judge applies the rules to every hosted group of one member's status.
func Judge(st rt.NodeStatus) Status {
	v := Status{Node: st.ID}
	for i := range st.Groups {
		gv := judgeGroup(&st.Groups[i], st.K)
		v.Joining = v.Joining || gv.Joining
		for _, r := range gv.Reasons {
			v.Reasons = append(v.Reasons, GroupReason{Group: gv.Group, Rule: r.Rule, Reason: r.Detail})
		}
		v.Groups = append(v.Groups, gv)
	}
	v.Healthy = len(v.Reasons) == 0
	return v
}

// judgeGroup applies the rules to one group's facts, aged against the clock
// subrun the member is in; k is the silence threshold.
func judgeGroup(g *rt.Status, k int) GroupVerdict {
	v := GroupVerdict{Group: int(g.Group)}
	fire := func(rule, format string, args ...any) {
		v.Reasons = append(v.Reasons, Reason{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	now := g.Subrun
	switch {
	case !g.Running:
		fire("left", "member %d no longer runs the protocol in group %d", g.ID, g.Group)
	case g.Joining:
		v.Joining = true
	default:
		if age := now - g.TokenSubrun; age > W {
			fire("token-stall", "no decision reached member %d since subrun %d (%d subruns)", g.ID, g.TokenSubrun, age)
		}
		if age := now - g.WaitingSince; g.WaitingLen > 0 && age > W {
			fire("waiting-stuck", "waiting list non-empty since subrun %d (%d subruns), now %d", g.WaitingSince, age, g.WaitingLen)
		}
		gap := int64(g.Processed.Sum()) - int64(g.StableTo.Sum())
		if age := now - g.StableSubrun; gap > 0 && age > W {
			fire("frontier-lag", "stability frontier stalled since subrun %d (%d subruns): processed-stable gap %d, history %d",
				g.StableSubrun, age, gap, g.HistoryLen)
		}
		if g.Declared != mid.None && now-g.DeclaredAt <= W {
			fire("exclusion", "p%d suspected since subrun %d, declared crashed at %d", g.Declared, g.DeclaredAt-int64(k), g.DeclaredAt)
		}
	}
	v.Healthy = len(v.Reasons) == 0
	return v
}

// Handler serves the verdict on the member's status as JSON (the /healthz
// endpoint): 200 when every group is healthy, 503 listing the
// {group, rule, reason} triples when any is not, and 503 with the error when
// the status cannot be taken.
func Handler(status func(context.Context) (rt.NodeStatus, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st, err := status(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		v := Judge(st)
		w.Header().Set("Content-Type", "application/json")
		if !v.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(v)
	})
}
