// Package fault holds no code. The simulator's failure model is the
// internal/faultrt injectors, which simnet consults on virtual time through
// sim.Time.Duration. These tests pin that reading: every injector, driven
// on ticks as the simulator drives it, fails exactly what the tick-level
// failure model of the published figures failed, boundaries included.
package fault

import (
	"testing"
	"time"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// onTicks consults an injector the way simnet does: at group 0, on the
// elapsed time a tick count stands for, reading only the Drop verdict.
type onTicks struct{ inj faultrt.Injector }

func (o onTicks) Crashed(p mid.ProcID, now sim.Time) bool {
	return o.inj.Crashed(p, now.Duration())
}

func (o onTicks) DropSend(src, dst mid.ProcID, now sim.Time) bool {
	return o.inj.Send(0, src, dst, now.Duration()).Drop
}

func (o onTicks) DropRecv(src, dst mid.ProcID, now sim.Time) bool {
	return o.inj.Recv(0, src, dst, now.Duration()).Drop
}

func crashAt(p mid.ProcID, at sim.Time) faultrt.CrashAt {
	return faultrt.CrashAt{Proc: p, At: at.Duration()}
}

func TestNone(t *testing.T) {
	in := onTicks{faultrt.None{}}
	if in.Crashed(0, 100) || in.DropSend(0, 1, 0) || in.DropRecv(0, 1, 0) {
		t.Error("None must never fail anything")
	}
}

func TestCrash(t *testing.T) {
	c := onTicks{crashAt(2, 100)}
	if c.Crashed(2, 99) {
		t.Error("not crashed before At")
	}
	if !c.Crashed(2, 100) || !c.Crashed(2, 5000) {
		t.Error("crashed from At onwards")
	}
	if c.Crashed(1, 5000) {
		t.Error("other processes unaffected")
	}
	if !c.DropSend(2, 0, 100) {
		t.Error("crashed sender emits nothing")
	}
	if c.DropSend(0, 2, 100) {
		t.Error("sends to a crashed process still leave the sender")
	}
	if !c.DropRecv(0, 2, 100) {
		t.Error("crashed receiver absorbs nothing")
	}
}

func TestEveryNthSend(t *testing.T) {
	e := onTicks{&faultrt.DropEvery{N: 3, Side: faultrt.AtSend}}
	var drops []int
	for i := 1; i <= 9; i++ {
		if e.DropSend(0, 1, 0) {
			drops = append(drops, i)
		}
	}
	if len(drops) != 3 || drops[0] != 3 || drops[1] != 6 || drops[2] != 9 {
		t.Errorf("drops = %v", drops)
	}
	if e.DropRecv(0, 1, 0) {
		t.Error("send-side injector must not drop at receive")
	}
}

func TestEveryNthRecv(t *testing.T) {
	e := onTicks{&faultrt.DropEvery{N: 2, Side: faultrt.AtRecv}}
	d1, d2 := e.DropRecv(0, 1, 0), e.DropRecv(0, 1, 0)
	if d1 || !d2 {
		t.Errorf("drops = %v %v, want false true", d1, d2)
	}
	if e.DropSend(0, 1, 0) {
		t.Error("recv-side injector must not drop at send")
	}
}

func TestEveryNthDisabled(t *testing.T) {
	e := onTicks{&faultrt.DropEvery{N: 0, Side: faultrt.AtSend}}
	for i := 0; i < 10; i++ {
		if e.DropSend(0, 1, 0) {
			t.Fatal("N=0 must never drop")
		}
	}
}

func TestRateDeterministicPerSeed(t *testing.T) {
	run := func() []bool {
		r := onTicks{faultrt.NewDropRate(0.5, faultrt.AtSend, 99)}
		out := make([]bool, 100)
		for i := range out {
			out[i] = r.DropSend(0, 1, sim.Time(i))
		}
		return out
	}
	a, b := run(), run()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same drops")
		}
		if a[i] {
			drops++
		}
	}
	if drops < 30 || drops > 70 {
		t.Errorf("0.5 rate produced %d/100 drops", drops)
	}
	if r := (onTicks{faultrt.NewDropRate(0.5, faultrt.AtSend, 1)}); r.DropRecv(0, 1, 0) {
		t.Error("send-side rate must not drop at receive")
	}
}

func TestDuringWindowsOmissionsNotCrashes(t *testing.T) {
	inner := faultrt.Multi{
		&faultrt.DropEvery{N: 1, Side: faultrt.AtSend}, // drops everything
		crashAt(1, 50),
	}
	d := onTicks{faultrt.During{From: sim.Time(100).Duration(), To: sim.Time(200).Duration(), Inner: inner}}
	if d.DropSend(0, 1, 99) {
		t.Error("before window")
	}
	if !d.DropSend(0, 1, 150) {
		t.Error("inside window")
	}
	if d.DropSend(0, 1, 200) {
		t.Error("at window end: the window is half-open")
	}
	if d.DropSend(2, 3, 300) {
		t.Error("omission outside window must not fire")
	}
	if !d.Crashed(1, 300) {
		t.Error("crash must not be windowed")
	}
}

func TestOnlyProc(t *testing.T) {
	o := onTicks{faultrt.OnlyProc{Proc: 1, Inner: &faultrt.DropEvery{N: 1, Side: faultrt.AtSend}}}
	if o.DropSend(0, 1, 0) {
		t.Error("other senders unaffected")
	}
	if !o.DropSend(1, 0, 0) {
		t.Error("target sender drops")
	}
	o2 := onTicks{faultrt.OnlyProc{Proc: 1, Inner: &faultrt.DropEvery{N: 1, Side: faultrt.AtRecv}}}
	if o2.DropRecv(0, 2, 0) {
		t.Error("other receivers unaffected")
	}
	if !o2.DropRecv(0, 1, 0) {
		t.Error("target receiver drops")
	}
}

func TestMultiComposition(t *testing.T) {
	m := onTicks{faultrt.Multi{
		crashAt(0, 10),
		&faultrt.DropEvery{N: 2, Side: faultrt.AtSend},
	}}
	if !m.Crashed(0, 10) || m.Crashed(1, 10) {
		t.Error("Crashed composition wrong")
	}
	// First consult: counter 1, no drop. Second: counter 2, drop.
	if m.DropSend(1, 2, 0) {
		t.Error("first packet survives")
	}
	if !m.DropSend(1, 2, 0) {
		t.Error("second packet dropped by DropEvery")
	}
	// Crashed sender drops regardless of counter.
	if !m.DropSend(0, 1, 10) {
		t.Error("crashed sender must drop")
	}
}

func TestCrashesBuilder(t *testing.T) {
	m := faultrt.Crashes(map[mid.ProcID]time.Duration{3: sim.Time(100).Duration(), 1: sim.Time(50).Duration()})
	if len(m) != 2 {
		t.Fatalf("len = %d", len(m))
	}
	v := onTicks{m}
	if !v.Crashed(1, 50) || !v.Crashed(3, 100) || v.Crashed(2, 1000) {
		t.Error("schedule not honoured")
	}
	if v.Crashed(1, 49) || v.Crashed(3, 99) {
		t.Error("nobody crashes before its tick")
	}
}

func TestPartition(t *testing.T) {
	p := onTicks{faultrt.Partition{
		From:  sim.Time(100).Duration(),
		To:    sim.Time(200).Duration(),
		SideA: map[mid.ProcID]bool{0: true, 1: true},
	}}
	if p.DropSend(0, 1, 150) {
		t.Error("same side must flow")
	}
	if !p.DropSend(0, 2, 150) || !p.DropSend(2, 1, 150) {
		t.Error("cross-cut packets must drop in both directions")
	}
	if p.DropSend(0, 2, 99) || p.DropSend(0, 2, 200) {
		t.Error("outside the window nothing drops")
	}
	if p.Crashed(0, 150) || p.DropRecv(0, 2, 150) {
		t.Error("partition neither crashes nor drops at receive")
	}
}

// TestCrashesHighProcIDAndOrder is the regression test for a builder that
// probed ProcIDs 0..65535 linearly and so silently dropped any schedule
// entry at or above 1<<16: every entry must survive, in ascending ProcID
// order for rng reproducibility.
func TestCrashesHighProcIDAndOrder(t *testing.T) {
	m := faultrt.Crashes(map[mid.ProcID]time.Duration{
		1 << 20: sim.Time(100).Duration(), // above the old probe ceiling
		7:       sim.Time(50).Duration(),
		1 << 16: sim.Time(75).Duration(), // exactly at the old ceiling
	})
	if len(m) != 3 {
		t.Fatalf("len = %d, want 3 (high ProcIDs dropped)", len(m))
	}
	want := []mid.ProcID{7, 1 << 16, 1 << 20}
	for i, in := range m {
		c := in.(faultrt.CrashAt)
		if c.Proc != want[i] {
			t.Errorf("member %d = p%d, want p%d", i, c.Proc, want[i])
		}
	}
	v := onTicks{m}
	if !v.Crashed(1<<20, 100) || !v.Crashed(1<<16, 75) {
		t.Error("high ProcID crashes must be honoured")
	}
}

// TestDuringScopesInnerCounter pins the combinator scoping contract the
// experiment schedules depend on: During does not consult its inner
// injector outside the window, so During{DropEvery{N}} drops every Nth
// packet of the window — out-of-window traffic must not advance the
// counter.
func TestDuringScopesInnerCounter(t *testing.T) {
	d := onTicks{faultrt.During{
		From:  sim.Time(100).Duration(),
		To:    sim.Time(200).Duration(),
		Inner: &faultrt.DropEvery{N: 3, Side: faultrt.AtSend},
	}}
	// Heavy out-of-window traffic: must not touch the inner counter.
	for i := 0; i < 7; i++ {
		if d.DropSend(0, 1, sim.Time(i)) {
			t.Fatal("no omissions before the window")
		}
	}
	var drops []int
	for i := 1; i <= 6; i++ {
		if d.DropSend(0, 1, 150) {
			drops = append(drops, i)
		}
	}
	if len(drops) != 2 || drops[0] != 3 || drops[1] != 6 {
		t.Errorf("in-window drops = %v, want [3 6] (window-scoped counting)", drops)
	}
	if d.DropSend(0, 1, 250) {
		t.Error("no omissions after the window")
	}
}

// TestOnlyProcScopesInnerCounter pins the same contract for the process
// filter: other processes' packets never advance the inner counter.
func TestOnlyProcScopesInnerCounter(t *testing.T) {
	o := onTicks{faultrt.OnlyProc{Proc: 1, Inner: &faultrt.DropEvery{N: 2, Side: faultrt.AtSend}}}
	if o.DropSend(0, 2, 0) || o.DropSend(0, 2, 1) || o.DropSend(2, 0, 2) {
		t.Fatal("other senders' packets must pass unconsulted")
	}
	if o.DropSend(1, 2, 3) {
		t.Fatal("proc 1's first packet must pass")
	}
	if !o.DropSend(1, 2, 4) {
		t.Error("proc 1's second packet must drop: the filter scopes the counter")
	}
}

// TestMultiConsultsEveryMember pins Multi's opposite contract: every
// member sees every packet, so sibling counters advance in lockstep
// however the composition is ordered.
func TestMultiConsultsEveryMember(t *testing.T) {
	a := &faultrt.DropEvery{N: 2, Side: faultrt.AtSend}
	b := &faultrt.DropEvery{N: 2, Side: faultrt.AtSend}
	m := onTicks{faultrt.Multi{a, b}}
	if m.DropSend(0, 1, 0) {
		t.Fatal("first packet must pass both counters")
	}
	// Both counters hit 2 together: a's verdict must not short-circuit b's.
	if !m.DropSend(0, 1, 1) {
		t.Fatal("second packet must drop")
	}
	if m.DropSend(0, 1, 2) {
		t.Error("third packet must pass: both counters at 3")
	}
	if !m.DropSend(0, 1, 3) {
		t.Error("fourth packet must drop: counters still in lockstep")
	}
}
