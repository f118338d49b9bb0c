package rt_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/health"
	"urcgc/internal/mid"
	"urcgc/internal/rt"
)

// TestHealthCountsTicksNotTime: /healthz ages a member's facts on the
// member's own clock. A socket member whose round ticks the test hands out —
// the hour-long rounds never come due by themselves — stays healthy through
// wall time without ticks, and with every frame to and from its peers cut it
// reads healthy at W clock subruns without a decision from the circulation
// and token-stall at W+1. Its own turns as coordinator do not count: its
// decisions reach nobody.
func TestHealthCountsTicksNotTime(t *testing.T) {
	const round = time.Hour
	ticks := make(chan time.Time)
	m, err := rt.NewMember(rt.Config{
		// K above the W+1 subruns the test runs: the peers stay in the view.
		Config:        core.Config{N: 3, K: 100, R: 202},
		Peers:         rt.FreePorts(t, 3),
		RoundDuration: round,
		Fault:         faultrt.NewHook(faultrt.Cut(func(uint32, mid.ProcID, mid.ProcID) bool { return true }), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetTicks(m, func(time.Duration) (<-chan time.Time, func()) { return ticks, func() {} })
	base := time.Now() // before the clock's epoch, by far less than half a round
	m.Start()
	t.Cleanup(m.Stop)

	// tickTo hands out ticks until the member is in clock subrun s: the k-th
	// tick, stamped k and a half rounds past base, opens round k-1.
	sent := 0
	tickTo := func(s int64) health.Status {
		t.Helper()
		for ; sent <= int(2*s); sent++ {
			ticks <- base.Add(time.Duration(sent+1)*round + round/2)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			st, err := m.Status(ctx)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if st.Groups[0].Subrun == s {
				return health.Judge(st)
			}
			if time.Now().After(deadline) {
				t.Fatalf("member in subrun %d, want %d", st.Groups[0].Subrun, s)
			}
		}
	}
	rules := func(v health.Status) []string {
		var out []string
		for _, r := range v.Reasons {
			out = append(out, r.Rule)
		}
		return out
	}

	if v := tickTo(health.W); !v.Healthy {
		t.Fatalf("at subrun W: %v", rules(v))
	}
	time.Sleep(100 * time.Millisecond) // wall time, no ticks
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	st, err := m.Status(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if v := health.Judge(st); !v.Healthy || st.Groups[0].Subrun != health.W {
		t.Fatalf("after wall time without ticks, subrun %d: %v", st.Groups[0].Subrun, rules(v))
	}
	if v := tickTo(health.W + 1); !slices.Equal(rules(v), []string{"token-stall"}) {
		t.Fatalf("at subrun W+1: rules %v, want token-stall", rules(v))
	}
}
