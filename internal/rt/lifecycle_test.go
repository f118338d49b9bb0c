package rt

import (
	"context"
	"strings"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// nopTransport drops every PDU: the receive path under test never replies.
type nopTransport struct{}

func (nopTransport) Send(mid.ProcID, wire.PDU) {}
func (nopTransport) Broadcast(wire.PDU)        {}

// driveWaitCascade measures the park-then-cascade deliver path (see
// waitCascadeAllocs) on a bare process with the given callbacks.
func driveWaitCascade(t *testing.T, cb core.Callbacks) float64 {
	t.Helper()
	return waitCascadeAllocs(t, cascadeProc(t, cb), nil)
}

// cascadeProc is the bare process waitCascadeAllocs drives.
func cascadeProc(t *testing.T, cb core.Callbacks) *core.Process {
	t.Helper()
	p, err := core.NewProcess(0, core.Config{N: 3, K: 3, R: 8, SelfExclusion: true},
		nopTransport{}, cb)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// waitCascadeAllocs measures the allocations of the park-then-cascade
// deliver path of a three-member group's process that nothing else drives:
// each run parks (1, s+1) on its unmet implicit predecessor, then delivers
// (1, s) and cascades both. The PDUs are prebuilt so only the deliver path
// itself is measured — and after, when set, which runs after each delivery
// as the loop's end-of-event step does.
func waitCascadeAllocs(t *testing.T, p *core.Process, after func(*core.Process)) float64 {
	t.Helper()
	const runs = 500
	payload := make([]byte, 16)
	msgs := make([]*wire.Data, 2*(runs+2))
	for i := range msgs {
		msgs[i] = &wire.Data{Msg: causal.Message{
			ID:      mid.MID{Proc: 1, Seq: mid.Seq(i + 1)},
			Payload: payload,
		}}
	}
	// Warm the scratch buffer and containers outside the measured region.
	p.Recv(1, msgs[1])
	p.Recv(1, msgs[0])
	i := 2
	got := testing.AllocsPerRun(runs, func() {
		p.Recv(1, msgs[i+1]) // parks: implicit dep (1, i) missing
		if after != nil {
			after(p)
		}
		p.Recv(1, msgs[i]) // ready: processes, cascade releases i+1
		if after != nil {
			after(p)
		}
		i += 2
	})
	if want := mid.Seq(2 * (runs + 2)); p.Processed()[1] != want {
		t.Fatalf("processed up to %d, want %d (driver bug)", p.Processed()[1], want)
	}
	return got
}

// TestLifecycleDisabledAllocFree proves the overhead contract from two
// directions. With tracing disabled, lifecycleCallbacks is empty and
// the nil-gated OnWait/OnStable branches never run, so the deliver path
// costs exactly what it does without this layer: nothing — the readiness
// checks walk the message in place and the waitlist and history only keep
// the pointer they are given. And the one computation the wait path can
// add, missingDeps, must be free too: with a no-op OnWait installed, the
// scratch buffer keeps the delta at zero allocations per message.
func TestLifecycleDisabledAllocFree(t *testing.T) {
	if cb := lifecycleCallbacks(nil); cb.OnGenerate != nil ||
		cb.OnBroadcast != nil || cb.OnWait != nil || cb.OnStable != nil {
		t.Fatal("lifecycleCallbacks(nil) must not install stage hooks")
	}
	disabled := driveWaitCascade(t, core.Callbacks{})
	// A park+deliver pair retains two messages it was handed and allocates
	// nothing of its own (the history's backing array grows a handful of
	// times over the run, which averages to zero).
	if disabled > 0 {
		t.Errorf("deliver path with tracing disabled allocates %.2f/op, budget 0", disabled)
	}
	withWait := driveWaitCascade(t, core.Callbacks{
		OnWait: func(m *causal.Message, missing mid.DepList) {},
	})
	if extra := withWait - disabled; extra > 0.5 {
		t.Errorf("missingDeps adds %.2f allocs/op over the disabled path, want 0 (scratch regression)", extra)
	}
}

// TestSessionDisabledObsAllocFree pins the same contract one layer up, on a
// session of a multi-group member: with Metrics and Lifecycle both nil its
// deliver path — confirm lookup, indication hand-off — adds nothing to the
// core's own budget, and no per-group accounting exists.
func TestSessionDisabledObsAllocFree(t *testing.T) {
	mesh, err := NewMesh(Config{Config: core.Config{N: 3, K: 3, R: 8, SelfExclusion: true}, Groups: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: this goroutine is the only one touching the process,
	// satisfying the single-owner contract.
	s := mesh.members[0].sessions[1]
	if s.obs != nil || s.tracer != nil {
		t.Fatal("disabled observability left per-group state allocated")
	}
	if got := waitCascadeAllocs(t, s.proc, nil); got > 0 {
		t.Errorf("disabled-observability deliver path allocates %.2f/op, budget 0", got)
	}
}

// TestLiveLifecycleTrace runs the in-process mesh with tracing enabled and
// checks a message's span picks up every stage, including uniform
// stability, and that the stage histograms fill.
func TestLiveLifecycleTrace(t *testing.T) {
	reg := obs.New()
	cfg := liveConfig(3)
	cfg.Metrics = reg
	cfg.Lifecycle = &lifecycle.Options{SlowThreshold: 10 * time.Second}
	c := startCluster(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := c.Node(0).Send(ctx, []byte("hello"), nil); err != nil {
			t.Fatal(err)
		}
	}

	tr := c.Node(0).Lifecycle()
	if tr == nil {
		t.Fatal("Lifecycle() = nil with tracing enabled")
	}
	// Stability needs the full-group clean_to to circulate; poll for it.
	var span lifecycle.Span
	deadline := time.Now().Add(8 * time.Second)
	for {
		found := false
		for _, s := range tr.TopSlowest(16) {
			if s.ID == (mid.MID{Proc: 0, Seq: 1}) {
				span, found = s, true
			}
		}
		if found && !span.StableAt.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("span (0,1) never reached stability; have %+v", span)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if span.GeneratedAt.IsZero() || span.BroadcastAt.IsZero() || span.ProcessedAt.IsZero() || span.DecidedAt.IsZero() {
		t.Fatalf("own-message span missing stages: %+v", span)
	}
	if span.Outcome != lifecycle.Processed {
		t.Fatalf("outcome = %v", span.Outcome)
	}
	if c := tr.Counts(); c.Completed < 5 {
		t.Fatalf("node 0 completed %d spans, want >= 5", c.Completed)
	}
	// A remote member saw the same messages without the origin-only stages.
	// Its processing of the later messages may trail node 0's stability of
	// the first, so poll.
	for {
		if c1 := c.Node(1).Lifecycle().Counts(); c1.Completed >= 5 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("node 1 completed %d spans, want >= 5", c1.Completed)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := reg.Histogram(obs.Labeled("lifecycle_emit_to_process_seconds", "node", "0", "group", "0"), nil); h.Count() < 5 {
		t.Fatalf("emit_to_process histogram count = %d", h.Count())
	}
	if h := reg.Histogram(obs.Labeled("lifecycle_stability_lag_seconds", "node", "0", "group", "0", "sender", "0"), nil); h.Count() == 0 {
		t.Fatal("stability_lag histogram empty")
	}
	r := tr.Report(5, 5)
	if r.Counts.Completed < 5 || len(r.Recent) == 0 {
		t.Fatalf("report = %+v", r)
	}
	var sb strings.Builder
	tr.WriteSlowest(&sb, 5)
	if !strings.Contains(sb.String(), "end-to-end") {
		t.Fatalf("WriteSlowest output:\n%s", sb.String())
	}
}

// TestLifecycleDisabledByDefault pins the default-off contract.
func TestLifecycleDisabledByDefault(t *testing.T) {
	c, err := NewCluster(liveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Node(0).Lifecycle() != nil {
		t.Fatal("Lifecycle() non-nil without opting in")
	}
}
