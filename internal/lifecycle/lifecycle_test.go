package lifecycle

import (
	"strings"
	"testing"
	"time"

	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// fakeClock installs a settable clock on the tracer and returns the setter.
func fakeClock(t *Tracer) func(time.Duration) {
	now := time.Unix(1000, 0)
	t.clock = func() time.Time { return now }
	return func(d time.Duration) { now = now.Add(d) }
}

func TestSpanHappyPath(t *testing.T) {
	reg := obs.New()
	tr := New(0, 3, 0, Options{}, reg)
	advance := fakeClock(tr)
	id := mid.MID{Proc: 0, Seq: 1}

	tr.Generated(id)
	advance(time.Millisecond)
	tr.Broadcast(id)
	advance(2 * time.Millisecond)
	tr.Processed(id)
	advance(time.Millisecond)
	tr.DecisionApplied(mid.SeqVector{1, 0, 0})
	advance(time.Millisecond)
	tr.StableTo(mid.SeqVector{1, 0, 0})

	c := tr.Counts()
	if c.Started != 1 || c.Completed != 1 || c.InFlight != 0 {
		t.Fatalf("counts = %+v", c)
	}
	spans := tr.Recent(10)
	if len(spans) != 1 {
		t.Fatalf("recent = %d spans", len(spans))
	}
	s := spans[0]
	if s.Outcome != Processed {
		t.Fatalf("outcome = %v", s.Outcome)
	}
	for name, at := range map[string]time.Time{
		"generated": s.GeneratedAt, "broadcast": s.BroadcastAt,
		"processed": s.ProcessedAt, "decided": s.DecidedAt, "stable": s.StableAt,
	} {
		if at.IsZero() {
			t.Errorf("%s timestamp not stamped", name)
		}
	}
	if got := s.EndToEnd(); got != 3*time.Millisecond {
		t.Errorf("end-to-end = %v, want 3ms", got)
	}
	if h := reg.Histogram(obs.Labeled("lifecycle_emit_to_process_seconds", "node", "0", "group", "0"), nil); h.Count() != 1 {
		t.Errorf("emit_to_process count = %d", h.Count())
	}
	if h := reg.Histogram(obs.Labeled("lifecycle_stability_lag_seconds", "node", "0", "group", "0", "sender", "0"), nil); h.Count() != 1 {
		t.Errorf("stability_lag count = %d", h.Count())
	}
}

func TestWaitingClonesBlockingList(t *testing.T) {
	tr := New(1, 3, 0, Options{}, nil)
	fakeClock(tr)
	id := mid.MID{Proc: 0, Seq: 2}
	scratch := mid.DepList{{Proc: 0, Seq: 1}}
	tr.Waiting(id, scratch)
	scratch[0] = mid.MID{Proc: 2, Seq: 9} // caller reuses the backing array

	spans := tr.SlowestInFlight(1)
	if len(spans) != 1 {
		t.Fatalf("in-flight = %d", len(spans))
	}
	want := mid.MID{Proc: 0, Seq: 1}
	if len(spans[0].Blocking) != 1 || spans[0].Blocking[0] != want {
		t.Fatalf("blocking = %v, want [%v]", spans[0].Blocking, want)
	}
}

func TestOutOfOrderStageObservations(t *testing.T) {
	tr := New(0, 3, 0, Options{}, nil)
	advance := fakeClock(tr)

	// A decision and full-group stability arrive before the message itself
	// (recovery retransmit): the span must inherit both watermarks at
	// creation instead of showing an undecided ghost.
	tr.DecisionApplied(mid.SeqVector{0, 3, 0})
	tr.StableTo(mid.SeqVector{0, 3, 0})
	advance(time.Millisecond)
	late := mid.MID{Proc: 1, Seq: 2}
	tr.Waiting(late, nil)
	spans := tr.SlowestInFlight(1)
	if len(spans) != 1 || spans[0].DecidedAt.IsZero() || spans[0].StableAt.IsZero() {
		t.Fatalf("late span did not inherit watermarks: %+v", spans)
	}

	// Processing before any decision: the decided stamp lands later, on the
	// completed span still retained in the ring.
	early := mid.MID{Proc: 2, Seq: 1}
	tr.Processed(early)
	advance(time.Millisecond)
	tr.DecisionApplied(mid.SeqVector{0, 0, 1})
	for _, s := range tr.Recent(10) {
		if s.ID == early {
			if s.DecidedAt.IsZero() {
				t.Fatal("decision after processing did not stamp the completed span")
			}
			if !s.DecidedAt.After(s.ProcessedAt) {
				t.Fatal("decided stamp should postdate processing here")
			}
			return
		}
	}
	t.Fatal("early span not in recent ring")
}

func TestDiscardedOutcome(t *testing.T) {
	tr := New(0, 3, 0, Options{}, nil)
	advance := fakeClock(tr)
	id := mid.MID{Proc: 1, Seq: 5}
	tr.Waiting(id, mid.DepList{{Proc: 1, Seq: 4}})
	advance(time.Millisecond)
	tr.Discarded(id)
	tr.Processed(id) // duplicate terminal observation: first one wins

	c := tr.Counts()
	if c.Discarded != 1 || c.Completed != 0 || c.InFlight != 0 {
		t.Fatalf("counts = %+v", c)
	}
	s := tr.Recent(1)
	if len(s) != 1 || s[0].Outcome != Discarded || s[0].DiscardedAt.IsZero() {
		t.Fatalf("span = %+v", s)
	}
	if s[0].EndToEnd() != time.Millisecond {
		t.Fatalf("end-to-end = %v", s[0].EndToEnd())
	}
}

func TestWatchdogFlagsStuckSpans(t *testing.T) {
	reg := obs.New()
	tr := New(0, 3, 0, Options{SlowThreshold: 100 * time.Millisecond}, reg)
	advance := fakeClock(tr)

	stuck := mid.MID{Proc: 1, Seq: 7}
	dep := mid.MID{Proc: 1, Seq: 6}
	tr.Waiting(stuck, mid.DepList{dep})
	advance(50 * time.Millisecond)
	tr.Tick()
	if c := tr.Counts(); c.Flagged != 0 {
		t.Fatalf("flagged before threshold: %+v", c)
	}
	advance(60 * time.Millisecond) // 110ms waited, past threshold
	tr.Tick()
	tr.Tick() // second check must not double-flag
	advance(time.Hour)
	tr.Tick()
	if c := tr.Counts(); c.Flagged != 1 {
		t.Fatalf("flagged = %d, want 1", c.Flagged)
	}
	if got := reg.Counter(obs.Labeled("lifecycle_slow_messages_total", "node", "0", "group", "0")).Value(); got != 1 {
		t.Fatalf("slow counter = %d", got)
	}
	var sb strings.Builder
	reg.Events().Write(&sb)
	if !strings.Contains(sb.String(), dep.String()) {
		t.Fatalf("watchdog event does not name the blocking MID:\n%s", sb.String())
	}
	// The stuck span sorts ahead of a younger healthy one.
	tr.Waiting(mid.MID{Proc: 2, Seq: 1}, nil)
	if spans := tr.SlowestInFlight(2); len(spans) != 2 || spans[0].ID != stuck || !spans[0].Stuck {
		t.Fatalf("slowest-first order wrong: %+v", spans)
	}
	// Processing clears it from the in-flight set.
	tr.Processed(stuck)
	if spans := tr.SlowestInFlight(2); len(spans) != 1 {
		t.Fatalf("in-flight after processing = %d", len(spans))
	}
}

func TestRingEvictionAccounting(t *testing.T) {
	tr := New(0, 3, 0, Options{Capacity: 2}, nil)
	fakeClock(tr)
	for s := mid.Seq(1); s <= 3; s++ {
		tr.Processed(mid.MID{Proc: 0, Seq: s})
	}
	c := tr.Counts()
	if c.Completed != 3 || c.Evicted != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if spans := tr.Recent(10); len(spans) != 2 || spans[0].ID.Seq != 3 || spans[1].ID.Seq != 2 {
		t.Fatalf("recent = %+v", spans)
	}
	// The evicted span is gone from the index: a later stability stamp for
	// it must not resurrect anything.
	tr.StableTo(mid.SeqVector{3, 0, 0})
	if c := tr.Counts(); c.Started != 3 {
		t.Fatalf("stability resurrect: %+v", c)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	id := mid.MID{Proc: 0, Seq: 1}
	tr.Generated(id)
	tr.Broadcast(id)
	tr.Waiting(id, nil)
	tr.Processed(id)
	tr.Discarded(id)
	tr.DecisionApplied(nil)
	tr.StableTo(nil)
	tr.Tick()
	if c := tr.Counts(); c != (Counts{}) {
		t.Fatalf("nil counts = %+v", c)
	}
	if tr.SlowestInFlight(5) != nil || tr.Recent(5) != nil || tr.TopSlowest(5) != nil {
		t.Fatal("nil queries should return nil")
	}
	if r := tr.Report(5, 5); r.Counts != (Counts{}) {
		t.Fatalf("nil report = %+v", r)
	}
}

func TestReportShapes(t *testing.T) {
	tr := New(2, 3, 0, Options{SlowThreshold: time.Second}, nil)
	advance := fakeClock(tr)
	waiting := mid.MID{Proc: 0, Seq: 1}
	tr.Waiting(waiting, mid.DepList{{Proc: 1, Seq: 3}})
	done := mid.MID{Proc: 2, Seq: 1}
	tr.Generated(done)
	advance(time.Millisecond)
	tr.Processed(done)

	r := tr.Report(5, 5)
	if r.Node != 2 || r.Counts.InFlight != 1 || len(r.Slowest) != 1 || len(r.Recent) != 1 {
		t.Fatalf("report = %+v", r)
	}
	if r.Slowest[0].MID != waiting.String() || len(r.Slowest[0].Blocking) != 1 {
		t.Fatalf("slowest view = %+v", r.Slowest[0])
	}
	if r.Recent[0].Outcome != "processed" || r.Recent[0].EndToEndSeconds == 0 {
		t.Fatalf("recent view = %+v", r.Recent[0])
	}

	var sb strings.Builder
	tr.WriteSlowest(&sb, 5)
	if !strings.Contains(sb.String(), done.String()) {
		t.Fatalf("WriteSlowest missing completed span:\n%s", sb.String())
	}
}

// TestWatchdogBlamesInjectedFaults pins the fault-injection integration:
// when Options.Blame explains the blocking dependencies, the watchdog
// event line carries the explanation, and an empty answer adds nothing.
func TestWatchdogBlamesInjectedFaults(t *testing.T) {
	reg := obs.New()
	var asked []mid.MID
	tr := New(0, 3, 0, Options{
		SlowThreshold: 100 * time.Millisecond,
		Blame: func(blocking []mid.MID) string {
			asked = append(asked, blocking...)
			if len(blocking) > 0 && blocking[0].Proc == 1 {
				return "faultrt[p1: crashed at 2s]"
			}
			return ""
		},
	}, reg)
	advance := fakeClock(tr)

	blamed := mid.MID{Proc: 1, Seq: 7}
	tr.Waiting(mid.MID{Proc: 2, Seq: 3}, mid.DepList{blamed})
	tr.Waiting(mid.MID{Proc: 2, Seq: 4}, mid.DepList{{Proc: 0, Seq: 9}})
	advance(time.Hour)
	tr.Tick()
	if c := tr.Counts(); c.Flagged != 2 {
		t.Fatalf("flagged = %d, want 2", c.Flagged)
	}
	if len(asked) == 0 {
		t.Fatal("Blame was never consulted")
	}
	var sb strings.Builder
	reg.Events().Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "(faultrt[p1: crashed at 2s])") {
		t.Errorf("blamed span's event line missing the fault summary:\n%s", out)
	}
	if strings.Count(out, "faultrt[") != 1 {
		t.Errorf("unblamed span must not carry a fault annotation:\n%s", out)
	}
}
