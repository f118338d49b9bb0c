package rt

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// TestSkippedTicksAreCaughtUp: a stalled host makes a time.Ticker drop ticks,
// and a free-running member that numbered its rounds by the ticks it received
// would be out of phase from then on — its REQUESTs landing in everybody
// else's decision round, K subruns later excluded with no fault injected.
// Member 1's tick source here swallows one tick, then three in a row: the
// clock must number rounds by time — catch up and count what it lost — so
// that nobody leaves or is suspected and the decisions' attempts counters are
// back at zero.
func TestSkippedTicksAreCaughtUp(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n, round = 3, 5 * time.Millisecond
	reg := obs.New()
	ring := capture.New(capture.Options{Node: 0, N: n, MaxFrames: 256})
	cfg := Config{
		Config:        core.Config{N: n, K: 4, R: 10, SelfExclusion: true},
		Peers:         freePorts(t, n),
		RoundDuration: round,
		Metrics:       reg,
		Captures:      []*capture.Ring{ring},
		Logf:          t.Logf,
	}
	var swallow atomic.Int32
	members := make([]*Member, n)
	for i := range members {
		cfg.Self = mid.ProcID(i)
		m, err := NewMember(cfg)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
		t.Cleanup(m.Stop)
	}
	members[1].ticks = func(d time.Duration) (<-chan time.Time, func()) {
		tk := time.NewTicker(d)
		out, done := make(chan time.Time), make(chan struct{})
		go func() {
			for {
				select {
				case now := <-tk.C:
					if swallow.Load() > 0 {
						swallow.Add(-1)
						continue
					}
					select {
					case out <- now:
					case <-done:
						return
					}
				case <-done:
					return
				}
			}
		}()
		return out, func() { tk.Stop(); close(done) }
	}
	for _, m := range members {
		m.Start()
	}
	subrun := func() int64 {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		st, err := members[0].GroupStatus(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st.Subrun
	}
	elapse := func(subruns int64) {
		for until := subrun() + subruns; subrun() < until; {
			time.Sleep(round)
		}
	}
	elapse(6)
	for _, lost := range []int32{1, 3} {
		swallow.Store(lost)
		elapse(3 * int64(cfg.K)) // K subruns out of phase would have excluded it by now
	}
	if got := reg.Counter("topics_ticks_skipped_total").Value(); got < 4 {
		t.Errorf("topics_ticks_skipped_total = %d after 4 swallowed ticks", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, m := range members {
		st, err := m.GroupStatus(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if reason, left := m.Left(0); left {
			t.Errorf("member %d left a fault-free group: %v", i, reason)
		}
		for q, alive := range st.Alive {
			if !alive {
				t.Errorf("member %d believes member %d crashed", i, q)
			}
		}
	}
	// Nobody goes on being counted silent: the freshest decision member 0
	// received shows every attempts counter at zero (polled, because the host
	// may take ticks of its own while the test runs).
	freshest := func() *wire.Decision {
		recs := ring.Snapshot().Records
		for i := len(recs) - 1; i >= 0; i-- {
			pdu, err := wire.Unmarshal(recs[i].Frame)
			if d, ok := pdu.(*wire.Decision); err == nil && ok && recs[i].Dir == capture.DirIngress {
				return d
			}
		}
		return nil
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * round) {
		d := freshest()
		if d != nil && slices.Max(d.Attempts) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("attempts never returned to zero; freshest decision: %+v", d)
		}
	}
}
