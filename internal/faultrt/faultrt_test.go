package faultrt

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

func TestNone(t *testing.T) {
	var in None
	if in.Crashed(0, time.Second) {
		t.Error("None must never crash anyone")
	}
	if in.Send(0, 0, 1, 0).Faulty() || in.Recv(0, 0, 1, 0).Faulty() {
		t.Error("None must never fault a datagram")
	}
}

func TestCrashAt(t *testing.T) {
	c := CrashAt{Proc: 2, At: 100 * time.Millisecond}
	if c.Crashed(2, 99*time.Millisecond) {
		t.Error("not crashed before At")
	}
	if !c.Crashed(2, 100*time.Millisecond) || !c.Crashed(2, time.Hour) {
		t.Error("crashed from At onwards, permanently")
	}
	if c.Crashed(1, time.Hour) {
		t.Error("other processes unaffected")
	}
	if !c.Send(0, 2, 0, time.Second).Drop {
		t.Error("crashed sender emits nothing")
	}
	if c.Send(0, 0, 2, time.Second).Drop {
		t.Error("sends to a crashed process still leave the sender")
	}
	if !c.Recv(0, 0, 2, time.Second).Drop {
		t.Error("crashed receiver absorbs nothing")
	}
}

// TestDropEverySchedule consults each omission injector nine times on its
// own side, and as often on the other side, where it must never act.
func TestDropEverySchedule(t *testing.T) {
	for _, tc := range []struct {
		name string
		inj  Injector
		side Side
		want []int
	}{
		{"every 3rd at send", &DropEvery{N: 3, Side: AtSend}, AtSend, []int{3, 6, 9}},
		{"every 2nd at recv", &DropEvery{N: 2, Side: AtRecv}, AtRecv, []int{2, 4, 6, 8}},
		{"N=0 disabled", &DropEvery{N: 0, Side: AtSend}, AtSend, nil},
		{"rate 1 at send", NewDropRate(1, AtSend, 1), AtSend, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}},
	} {
		own, other := tc.inj.Send, tc.inj.Recv
		if tc.side == AtRecv {
			own, other = other, own
		}
		var drops []int
		for i := 1; i <= 9; i++ {
			if own(0, 0, 1, 0).Drop {
				drops = append(drops, i)
			}
			if other(0, 0, 1, 0).Faulty() {
				t.Fatalf("%s: the injector acted on the other side", tc.name)
			}
		}
		if fmt.Sprint(drops) != fmt.Sprint(tc.want) {
			t.Errorf("%s: drops = %v, want %v", tc.name, drops, tc.want)
		}
	}
}

func TestDelayEveryReordersDeterministically(t *testing.T) {
	mk := func() *DelayEvery {
		return NewDelayEvery(2, time.Millisecond, 4*time.Millisecond, AtRecv, 42)
	}
	a, b := mk(), mk()
	for i := 0; i < 50; i++ {
		av, bv := a.Recv(0, 0, 1, 0), b.Recv(0, 0, 1, 0)
		if av != bv {
			t.Fatalf("consult %d: %+v vs %+v", i, av, bv)
		}
		if i%2 == 1 {
			if av.Delay < time.Millisecond {
				t.Fatalf("consult %d: delay %v below base", i, av.Delay)
			}
			if !av.Kinds.Has(KindDelay) {
				t.Fatalf("consult %d: kinds %v", i, av.Kinds)
			}
		} else if av.Faulty() {
			t.Fatalf("consult %d: off-cadence fault %+v", i, av)
		}
	}
}

func TestDupEvery(t *testing.T) {
	d := &DupEvery{N: 2, Copies: 3, Side: AtSend}
	if d.Send(0, 0, 1, 0).Dup != 0 {
		t.Error("first datagram must pass")
	}
	act := d.Send(0, 0, 1, 0)
	if act.Dup != 3 || !act.Kinds.Has(KindDuplicate) {
		t.Errorf("second datagram: %+v", act)
	}
}

func TestPartitionCutsBothWaysAndHeals(t *testing.T) {
	p := Partition{From: time.Second, To: 2 * time.Second,
		SideA: map[mid.ProcID]bool{0: true, 1: true}}
	if p.Send(0, 0, 2, 500*time.Millisecond).Drop {
		t.Error("no cut before From")
	}
	if !p.Send(0, 0, 2, time.Second).Drop || !p.Send(0, 2, 0, time.Second).Drop {
		t.Error("cut must drop both directions")
	}
	if p.Send(0, 0, 1, time.Second).Drop || p.Send(0, 2, 3, time.Second).Drop {
		t.Error("intra-side traffic must flow")
	}
	if p.Send(0, 0, 2, 2*time.Second).Drop {
		t.Error("cut must heal at To")
	}
	if p.Crashed(0, time.Second) || p.Recv(0, 0, 2, time.Second).Faulty() {
		t.Error("a partition neither crashes nor acts at receive")
	}
	if !p.Send(0, 0, 2, 1500*time.Millisecond).Kinds.Has(KindPartition) {
		t.Error("cut drops must carry the partition kind")
	}
}

// TestDuringScopesInnerCounting pins the combinator scoping contract the
// simulated experiments depend on: During does not consult its inner
// injector outside the window, so a counter-based inner injector counts
// in-window datagrams only. Crashes are not windowed.
func TestDuringScopesInnerCounting(t *testing.T) {
	d := During{From: 10 * time.Millisecond, To: 20 * time.Millisecond,
		Inner: Multi{&DropEvery{N: 3, Side: AtSend}, CrashAt{Proc: 1, At: 5 * time.Millisecond}}}
	// 5 out-of-window consultations must not advance the inner counter.
	for i := 0; i < 5; i++ {
		if d.Send(0, 0, 1, 0).Faulty() {
			t.Fatal("no faults before the window")
		}
	}
	var drops []int
	for i := 1; i <= 6; i++ {
		if d.Send(0, 0, 1, 15*time.Millisecond).Drop {
			drops = append(drops, i)
		}
	}
	if len(drops) != 2 || drops[0] != 3 || drops[1] != 6 {
		t.Errorf("in-window drops = %v, want [3 6] (window-scoped counting)", drops)
	}
	if d.Send(0, 0, 1, 25*time.Millisecond).Faulty() {
		t.Error("no faults after the window")
	}
	if !d.Crashed(1, 30*time.Millisecond) || d.Crashed(0, 30*time.Millisecond) {
		t.Error("the crash must outlive the window, and only p1 crashes")
	}
}

func TestOnlyProcScopesInnerCounting(t *testing.T) {
	o := OnlyProc{Proc: 1, Inner: &DropEvery{N: 2, Side: AtSend}}
	if o.Send(0, 0, 2, 0).Faulty() || o.Send(0, 0, 2, 0).Faulty() {
		t.Fatal("other senders' datagrams must pass unconsulted")
	}
	if o.Send(0, 1, 2, 0).Drop {
		t.Fatal("proc 1's first datagram must pass")
	}
	if !o.Send(0, 1, 2, 0).Drop {
		t.Error("proc 1's second datagram must drop: other procs' traffic must not advance the counter")
	}
	r := OnlyProc{Proc: 1, Inner: &DropEvery{N: 1, Side: AtRecv}}
	if r.Recv(0, 0, 2, 0).Drop || !r.Recv(0, 0, 1, 0).Drop {
		t.Error("at receive the filter selects datagrams addressed to proc 1")
	}
}

func TestMultiConsultsEveryMemberAndMerges(t *testing.T) {
	a := &DropEvery{N: 2, Side: AtSend}
	b := &DupEvery{N: 2, Copies: 1, Side: AtSend}
	m := Multi{a, b}
	first := m.Send(0, 0, 1, 0)
	if first.Faulty() {
		t.Fatalf("first datagram faulted: %+v", first)
	}
	second := m.Send(0, 0, 1, 0)
	if !second.Drop || second.Dup != 1 {
		t.Fatalf("second datagram must merge drop+dup: %+v", second)
	}
	if !second.Kinds.Has(KindDrop) || !second.Kinds.Has(KindDuplicate) {
		t.Errorf("kinds = %v", second.Kinds)
	}
}

func TestCrashesDeterministicOrderWithHighProcID(t *testing.T) {
	sched := map[mid.ProcID]time.Duration{
		70000: time.Second, // above 1<<16, where an old linear probe stopped
		3:     2 * time.Second,
		1:     3 * time.Second,
	}
	m := Crashes(sched)
	if len(m) != 3 {
		t.Fatalf("len = %d, want 3", len(m))
	}
	want := []mid.ProcID{1, 3, 70000}
	for i, in := range m {
		c := in.(CrashAt)
		if c.Proc != want[i] {
			t.Errorf("member %d = p%d, want p%d", i, c.Proc, want[i])
		}
	}
	if !m.Crashed(70000, time.Second) {
		t.Error("high ProcID crash must be honored")
	}
	if m.Crashed(3, time.Second) || !m.Crashed(3, 2*time.Second) || m.Crashed(2, time.Hour) {
		t.Error("each entry crashes its own process at its own time, nobody else")
	}
}

// replay drives an injector with a fixed synthetic consultation sequence
// through a Hook on a deterministic clock and returns the trace.
func replay(t *testing.T, inj Injector, reg *obs.Registry) string {
	t.Helper()
	h := NewHook(inj, reg)
	var now time.Duration
	h.now = func() time.Duration { return now }
	const n = 4
	for step := 0; step < 2000; step++ {
		now = time.Duration(step) * time.Millisecond
		for src := mid.ProcID(0); src < n; src++ {
			h.Crashed(src)
			for dst := mid.ProcID(0); dst < n; dst++ {
				if dst == src {
					continue
				}
				h.Send(0, src, dst)
				h.Recv(0, src, dst)
			}
		}
	}
	return h.TraceString()
}

// TestHookTraceDeterministic is the determinism guarantee: the same seed
// and the same consultation schedule yield the identical injected-fault
// trace, byte for byte — for the seeded Schedule and for a seeded injector
// on its own.
func TestHookTraceDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(seed int64) Injector
	}{
		{"schedule", func(seed int64) Injector {
			return NewSchedule(seed, 4, 2*time.Second, 2*time.Millisecond, 8).Injector()
		}},
		{"drop rate", func(seed int64) Injector { return NewDropRate(0.5, AtSend, seed) }},
	} {
		t1 := replay(t, tc.mk(7), nil)
		t2 := replay(t, tc.mk(7), nil)
		if t1 != t2 {
			t.Fatalf("%s: traces differ under identical seed+schedule:\n--- run 1 ---\n%.400s\n--- run 2 ---\n%.400s", tc.name, t1, t2)
		}
		if t1 == "" {
			t.Fatalf("%s: injected nothing over 2000 steps", tc.name)
		}
		if t3 := replay(t, tc.mk(8), nil); t3 == t1 {
			t.Errorf("%s: a different seed should produce a different trace", tc.name)
		}
	}
}

func TestScheduleStringDeterministic(t *testing.T) {
	a := NewSchedule(99, 5, time.Minute, 2*time.Millisecond, 8)
	b := NewSchedule(99, 5, time.Minute, 2*time.Millisecond, 8)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\nvs\n%s", a, b)
	}
	if a.PartTo-a.PartFrom >= time.Duration(a.K)*2*a.Round+a.Round {
		t.Errorf("partition %v..%v not shorter than K subruns", a.PartFrom, a.PartTo)
	}
	if int(a.CrashProc) < 0 || int(a.CrashProc) >= 5 {
		t.Errorf("crash proc %d outside group", a.CrashProc)
	}
	sideA := 0
	for p, in := range a.PartSideA {
		if in {
			sideA++
		}
		if int(p) < 0 || int(p) >= 5 {
			t.Errorf("side-A member %d outside group", p)
		}
	}
	if sideA == 0 || sideA >= 5 {
		t.Errorf("degenerate partition side of %d", sideA)
	}
}

func TestHookCountsKindsAndBlames(t *testing.T) {
	reg := obs.New()
	h := NewHook(Multi{
		CrashAt{Proc: 1, At: 0},
		&DupEvery{N: 1, Copies: 1, Side: AtSend},
	}, reg)
	if !h.Crashed(1) {
		t.Fatal("p1 must be crashed")
	}
	h.Crashed(1) // second observation must not double-count
	act := h.Send(0, 0, 2)
	if act.Dup != 1 {
		t.Fatalf("act = %+v", act)
	}
	inj := h.Injected()
	if inj["crash"] != 1 || inj["duplicate"] != 1 {
		t.Errorf("injected = %v", inj)
	}
	snap := reg.Snapshot()
	if snap[obs.Labeled("faultrt_injected_total", "kind", "crash")] != 1 {
		t.Errorf("crash counter not exported: %v", snap)
	}
	if b := h.Blame([]mid.MID{{Proc: 1, Seq: 4}}); b == "" {
		t.Error("blame for the crashed proc must not be empty")
	} else if !strings.Contains(b, "crashed") {
		t.Errorf("blame %q does not mention the crash", b)
	}
	if b := h.Blame([]mid.MID{{Proc: 3, Seq: 1}}); b != "" {
		t.Errorf("unblamed proc produced %q", b)
	}
}

func TestNilHookIsInert(t *testing.T) {
	var h *Hook
	if h.Crashed(0) || h.Send(0, 0, 1).Faulty() || h.Recv(0, 0, 1).Faulty() {
		t.Error("nil hook must inject nothing")
	}
	if h.Blame([]mid.MID{{Proc: 0, Seq: 1}}) != "" {
		t.Error("nil hook must not blame")
	}
	if evs, _ := h.Trace(); evs != nil {
		t.Error("nil hook has no trace")
	}
}
