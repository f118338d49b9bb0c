package waitlist

import (
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

func msg(p mid.ProcID, s mid.Seq, deps ...mid.MID) *causal.Message {
	return &causal.Message{ID: mid.MID{Proc: p, Seq: s}, Deps: mid.DepList(deps)}
}

func TestAddRemoveHas(t *testing.T) {
	l := New(3)
	m := msg(0, 2)
	if !l.Add(m) {
		t.Error("first Add should succeed")
	}
	if l.Add(msg(0, 2)) {
		t.Error("duplicate Add should be rejected")
	}
	if !l.Has(m.ID) || l.Len() != 1 {
		t.Error("Has/Len wrong after Add")
	}
	if got := l.Remove(m.ID); got != m {
		t.Error("Remove should return the message")
	}
	if l.Remove(m.ID) != nil {
		t.Error("second Remove should return nil")
	}
	if l.Len() != 0 {
		t.Error("Len after Remove")
	}
}

func TestNextReadyCascade(t *testing.T) {
	tr := causal.NewTracker(2)
	l := New(2)
	// p0#2 waits for p0#1; p1#1 waits for p0#2.
	l.Add(msg(0, 2))
	l.Add(msg(1, 1, mid.MID{Proc: 0, Seq: 2}))
	if l.NextReady(tr) != nil {
		t.Fatal("nothing should be ready yet")
	}
	if err := tr.Process(msg(0, 1)); err != nil {
		t.Fatal(err)
	}
	var order []mid.MID
	for {
		m := l.NextReady(tr)
		if m == nil {
			break
		}
		if err := tr.Process(m); err != nil {
			t.Fatal(err)
		}
		l.Remove(m.ID)
		order = append(order, m.ID)
	}
	if len(order) != 2 || order[0] != (mid.MID{Proc: 0, Seq: 2}) || order[1] != (mid.MID{Proc: 1, Seq: 1}) {
		t.Errorf("cascade order = %v", order)
	}
	if l.Len() != 0 {
		t.Errorf("waiting list should drain, Len = %d", l.Len())
	}
}

func TestNextReadyDeterministicOrder(t *testing.T) {
	tr := causal.NewTracker(3)
	l := New(3)
	l.Add(msg(2, 1))
	l.Add(msg(0, 1))
	l.Add(msg(1, 1))
	if got := l.NextReady(tr); got.ID != (mid.MID{Proc: 0, Seq: 1}) {
		t.Errorf("NextReady = %v, want smallest MID first", got.ID)
	}
}

func TestOldestWaiting(t *testing.T) {
	l := New(3)
	l.Add(msg(1, 4))
	l.Add(msg(1, 2))
	l.Add(msg(2, 7))
	v := mid.NewSeqVector(3)
	l.OldestWaitingInto(v)
	if !v.Equal(mid.SeqVector{0, 2, 7}) {
		t.Errorf("OldestWaiting = %v", v)
	}
}

func TestMissingBefore(t *testing.T) {
	l := New(3)
	// p1#3 waits; we processed p1 up to 1, so p1#2 is the first missing.
	l.Add(msg(1, 3))
	// p2#1 depends on p0#4; we processed p0 up to 1, first missing p0#2.
	l.Add(msg(2, 1, mid.MID{Proc: 0, Seq: 4}))
	need := l.MissingBefore(mid.SeqVector{1, 1, 0})
	if !need.Equal(mid.SeqVector{2, 2, 0}) {
		t.Errorf("MissingBefore = %v", need)
	}
}

func TestMissingBeforeSkipsAlreadyReceived(t *testing.T) {
	l := New(2)
	// p0#2 and p0#3 both wait; p0#2 is received, so nothing of p0's
	// sequence needs recovery (it will unblock once p0#1... wait: processed
	// is 1, so p0#2 is processable and just hasn't cascaded yet).
	l.Add(msg(0, 2))
	l.Add(msg(0, 3))
	need := l.MissingBefore(mid.SeqVector{1, 0})
	if need[0] != 0 {
		t.Errorf("MissingBefore = %v, first missing already held", need)
	}
}

func TestDropDoomedTransitive(t *testing.T) {
	tr := causal.NewTracker(3)
	l := New(3)
	// Sequence p0: message 1 is lost forever; condemn (0,1).
	// Waiting: p0#2 (doomed: implicit dep on condemned p0#1),
	//          p1#1 depending on p0#2 (doomed transitively),
	//          p2#1 independent (survives).
	l.Add(msg(0, 2))
	l.Add(msg(1, 1, mid.MID{Proc: 0, Seq: 2}))
	l.Add(msg(2, 1))
	if err := tr.Condemn(0, 1); err != nil {
		t.Fatal(err)
	}
	dropped := l.DropDoomed(tr)
	if len(dropped) != 2 {
		t.Fatalf("dropped %d messages, want 2: %v", len(dropped), dropped)
	}
	if !l.Has(mid.MID{Proc: 2, Seq: 1}) {
		t.Error("independent message should survive")
	}
	if !tr.IsCondemned(mid.MID{Proc: 1, Seq: 1}) {
		t.Error("dropped message's suffix should be condemned")
	}
	// Condemnation is sticky: a late arrival depending on the dropped chain
	// is doomed immediately.
	late := msg(2, 1, mid.MID{Proc: 1, Seq: 1})
	if !tr.Doomed(late) {
		t.Error("late dependent arrival should be doomed")
	}
}

func TestDropDoomedNothing(t *testing.T) {
	tr := causal.NewTracker(2)
	l := New(2)
	l.Add(msg(0, 2))
	if dropped := l.DropDoomed(tr); dropped != nil {
		t.Errorf("nothing condemned, dropped %v", dropped)
	}
	if l.Len() != 1 {
		t.Error("list should be untouched")
	}
}

func TestAllReturnsEverything(t *testing.T) {
	l := New(2)
	l.Add(msg(0, 1))
	l.Add(msg(1, 1))
	if got := l.All(); len(got) != 2 {
		t.Errorf("All returned %d messages", len(got))
	}
}

// BenchmarkWaitlistCascade measures releasing a 64-deep dependency chain that
// arrived in reverse.
func BenchmarkWaitlistCascade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := causal.NewTracker(8)
		wl := New(8)
		for s := mid.Seq(64); s >= 2; s-- {
			wl.Add(&causal.Message{ID: mid.MID{Proc: 0, Seq: s}})
		}
		b.StartTimer()
		if err := tr.Process(&causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}); err != nil {
			b.Fatal(err)
		}
		for {
			m := wl.NextReady(tr)
			if m == nil {
				break
			}
			wl.Remove(m.ID)
			if err := tr.Process(m); err != nil {
				b.Fatal(err)
			}
		}
		if wl.Len() != 0 {
			b.Fatal("cascade incomplete")
		}
	}
}
