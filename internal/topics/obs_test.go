package topics

import (
	"context"
	"strconv"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// TestMultiGroupObservability drives a mesh cluster with metrics and
// tracing enabled and checks the per-group observability surface: each
// group's tracer is group-tagged, its report carries the group id, the
// per-group submit→stable histogram fills, and Status exposes one
// sample per hosted group.
func TestMultiGroupObservability(t *testing.T) {
	const n, groups = 3, 3
	reg := obs.New()
	cfg := meshConfig(n, groups, 2)
	cfg.Metrics = reg
	cfg.Lifecycle = &lifecycle.Options{SlowThreshold: 10 * time.Second}
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for g := 0; g < groups; g++ {
		for i := 0; i < 3; i++ {
			if _, err := c.Node(0).Send(ctx, uint32(g), []byte("payload"), nil); err != nil {
				t.Fatalf("group %d send %d: %v", g, i, err)
			}
		}
	}

	for g := 0; g < groups; g++ {
		tr := c.Node(0).Lifecycle(uint32(g))
		if tr == nil {
			t.Fatalf("group %d tracer nil with tracing enabled", g)
		}
		r := tr.Report(5, 5)
		if r.Group != g || r.Node != 0 {
			t.Fatalf("group %d report tagged node=%d group=%d", g, r.Node, r.Group)
		}
		if r.Counts.Started == 0 {
			t.Fatalf("group %d report tracked no spans", g)
		}
	}
	if trs := c.Node(1).Lifecycles(); len(trs) != groups {
		t.Fatalf("Lifecycles() = %d tracers, want %d", len(trs), groups)
	}

	// Uniform stability settles the per-group submit→stable histogram on
	// the origin; poll, then check every group's series landed.
	deadline := time.Now().Add(15 * time.Second)
	for g := 0; g < groups; g++ {
		name := obs.Labeled("topics_submit_to_stable_seconds", "node", "0", "group", strconv.Itoa(g))
		for reg.Histogram(name, nil).Count() < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("group %d submit_to_stable count = %d, want 3", g, reg.Histogram(name, nil).Count())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The group-labeled lifecycle histograms fill too.
	if h := reg.Histogram(obs.Labeled("lifecycle_emit_to_process_seconds", "node", "0", "group", "1"), nil); h.Count() == 0 {
		t.Fatal("group-labeled lifecycle histogram empty")
	}

	st, err := c.Node(0).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Groups) != groups {
		t.Fatalf("status groups = %d, want %d", len(st.Groups), groups)
	}
	for g, gs := range st.Groups {
		if int(gs.Group) != g || !gs.Running || gs.Processed.Sum() < 3 {
			t.Fatalf("group %d status = %+v", g, gs)
		}
	}
}

// TestDropFramePartitionsOneGroup pins the per-group fault seam: with an
// injector dropping every frame of group 1, group 0 still replicates across
// the cluster while group 1's messages never reach a remote member (a
// sender's own message can still self-deliver, so the remote frontier is the
// witness).
func TestDropFramePartitionsOneGroup(t *testing.T) {
	cfg := meshConfig(3, 2, 2)
	cfg.Fault = faultrt.NewHook(faultrt.Cut(func(group uint32, _, _ mid.ProcID) bool { return group == 1 }), nil)
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Node(0).Send(ctx, 0, []byte("ok"), nil); err != nil {
		t.Fatalf("healthy group blocked: %v", err)
	}
	c.Node(0).Send(ctx, 1, []byte("lost"), nil) // may self-deliver; must not replicate

	// Group 0's message reaches every member; group 1's reaches none.
	want := mid.SeqVector{1, 0, 0}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got mid.SeqVector
		if err := c.Node(1).Snapshot(ctx, 0, func(p *core.Process) { got = p.Processed().Clone() }); err != nil {
			t.Fatal(err)
		}
		if got.Equal(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group 0 never replicated: %v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var remote mid.SeqVector
	if err := c.Node(1).Snapshot(ctx, 1, func(p *core.Process) { remote = p.Processed().Clone() }); err != nil {
		t.Fatal(err)
	}
	if remote.Sum() != 0 {
		t.Fatalf("partitioned group leaked frames: remote processed %v", remote)
	}
}

// TestIdleSendSkipsTickWaitPerGroup: every group's subrun budget is its
// own — an idle (member, group) session's Send leaves on submit, well inside
// one round, and the fast path is counted on the group-labeled series.
func TestIdleSendSkipsTickWaitPerGroup(t *testing.T) {
	const n, groups = 3, 2
	const round = 300 * time.Millisecond // tick waits would be unmistakable
	reg := obs.New()
	cfg := meshConfig(n, groups, 2)
	cfg.RoundDuration = round
	cfg.Metrics = reg
	c, err := NewMultiCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for g := 0; g < groups; g++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := c.Node(mid.ProcID(i)).Send(ctx, uint32(g), []byte("idle"), nil); err != nil {
				t.Fatalf("member %d group %d: %v", i, g, err)
			}
			if took := time.Since(t0); took > round/3 {
				t.Errorf("member %d group %d: an idle session's Send took %v at %v rounds: it waited for the tick", i, g, took, round)
			}
			// The loop counts the eager send right after the step that
			// confirmed this Send: give it a moment.
			name := obs.Labeled("rt_eager_broadcasts_total", "node", strconv.Itoa(i), "group", strconv.Itoa(g))
			for deadline := time.Now().Add(time.Second); reg.Counter(name).Value() != 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("%s = %d, want 1", name, reg.Counter(name).Value())
					break
				}
			}
		}
	}
}
