package stitch

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/nodehttp"
	"urcgc/internal/probe"
	"urcgc/internal/topics"
)

// Hold levels for the live stuck-message test's fault hook.
const (
	holdNone    = iota
	holdFromOne // member 1's group-1 frames to member 2, and member 2's own, are withheld
	holdAll     // all group-1 frames into member 2 are withheld
)

// TestTraceStuckMessageEndToEnd is the acceptance demo as a test: member
// 1 deliberately withholds a group-1 message from member 2, member 0's
// causal send then parks at member 2 behind the dependency it never
// received, and Collect+Stitch over the real per-node /trace surface must
// name the blocking member and the dependency MID.
//
// The hold escalates in two steps: first member 1's frames to member 2
// are dropped (so the dependency spreads to members 0 and 1 but not 2),
// and so are member 2's own; then every group-1 frame into member 2 is
// dropped. Both steps keep the recovery machinery from healing the gap
// under the test. Member 1's broadcast of the dependency ends with its
// report, which can close the open subrun at once: the coordinator's
// decision then names the dependency, member 2 asks its most-updated
// holder for it (RECOVER), and the holder's RETRANSMIT would deliver it
// within microseconds, before member 0's causal send — unless member 2's
// RECOVER never leaves. The hook's cut
// escalates itself, on the very frame that carries the blocked message to
// member 2, so no interval — poll, round or otherwise — separates "blocked
// arrived" from "recovery cut". It recognizes that frame by construction,
// not by timing: member 0 never sent in group 1 before, so its subrun
// budget is unspent and the blocked message leaves inside the loop
// event that submits it (send on submit) — the only span ever in flight at
// member 0's group-1 tracer, open from Submit until local processing, with
// exactly that broadcast in between.
func TestTraceStuckMessageEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster and timers")
	}
	const (
		n     = 3
		round = 300 * time.Millisecond
	)

	var (
		hold atomic.Int32
		cl   *topics.MultiCluster
	)
	cl, err := topics.NewMultiCluster(topics.Config{
		// K far above what the test can span keeps the one-sided silence
		// from becoming a crash declaration.
		Config: core.Config{
			N: n, K: 255, R: 512, SelfExclusion: false,
			BatchMax: core.DefaultBatchMax,
		},
		Groups:        2,
		RoundDuration: round,
		Lifecycle: &lifecycle.Options{
			SlowThreshold: 50 * time.Millisecond,
		},
		Fault: faultrt.NewHook(faultrt.Cut(func(group uint32, src, dst mid.ProcID) bool {
			if group != 1 {
				return false
			}
			switch hold.Load() {
			case holdFromOne:
				if src == 0 && dst == 2 && cl.Node(0).Lifecycle(1).Counts().InFlight > 0 {
					hold.Store(holdAll) // this frame passes; nothing after it does
				}
				return src == 1 && dst == 2 || src == 2
			case holdAll:
				return dst == 2
			}
			return false
		}), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	defer cl.Stop()

	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node := cl.Node(mid.ProcID(i))
		mux := nodehttp.Mux(nodehttp.Options{Lifecycle: node.Lifecycles})
		ln, err := nodehttp.Serve("127.0.0.1:0", mux)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		t.Cleanup(func() { ln.Close() })
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Both groups flowing first, so the stitch also joins healthy
	// completed spans. Member 2 warms group 1: members 0 and 1 keep their
	// group-1 budgets whole for the two messages below.
	if _, err := cl.Node(0).Send(ctx, 0, []byte("ok"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Node(2).Send(ctx, 1, []byte("warm"), nil); err != nil {
		t.Fatal(err)
	}

	// Member 1 broadcasts the dependency while its frames to member 2 are
	// withheld: members 0 and 1 process it, member 2 never receives it.
	hold.Store(holdFromOne)
	dep, err := cl.Node(1).Send(ctx, 1, []byte("withheld"), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Member 0's causal send depends on everything it processed — the
	// withheld message included (the mesh queued it at member 0 before
	// member 1's Send returned, ahead of this submission). Member 2
	// receives it (0→2 still flows) and parks it behind the dependency it
	// lacks; the frame that delivers it cuts all further group-1 traffic
	// into member 2.
	blocked, err := cl.Node(0).SendCausal(ctx, 1, []byte("blocked"))
	if err != nil {
		t.Fatal(err)
	}
	if got := hold.Load(); got != holdAll {
		t.Fatalf("hold = %d after the blocked send: its frame to member 2 did not arm the full cut", got)
	}

	deadline := time.Now().Add(30 * time.Second)
	var rep *Report
	for {
		rep = Stitch(Collect(Config{Cluster: probe.Cluster{Nodes: addrs}, Group: -1}))
		if blockedOn(rep, blocked.String(), dep.String()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stitched report never attributed the stall to %s:\n%s", dep, dump(rep))
		}
		time.Sleep(100 * time.Millisecond)
	}

	var sb strings.Builder
	rep.Write(&sb, 10)
	out := sb.String()
	if !strings.Contains(out, dep.String()) || !strings.Contains(out, "member 1") {
		t.Fatalf("text report does not name the blocking member and MID:\n%s", out)
	}
}

// blockedOn reports whether the stitched view holds the blocked group-1
// message stuck at member 2, attributed to member 1's withheld dependency
// — which members 0 and 1 did see, so it must read as in flight
// elsewhere.
func blockedOn(r *Report, blockedMID, depMID string) bool {
	for _, m := range r.Messages {
		if m.Group != 1 || m.MID != blockedMID {
			continue
		}
		stuckAt2 := false
		for _, node := range m.StuckAt {
			if node == 2 {
				stuckAt2 = true
			}
		}
		if !stuckAt2 {
			continue
		}
		for _, b := range m.Blocked {
			if b.DepMID == depMID && b.DepMember == 1 && b.SeenAnywhere {
				return true
			}
		}
	}
	return false
}

func dump(r *Report) string {
	var sb strings.Builder
	r.Write(&sb, 0)
	return sb.String()
}
