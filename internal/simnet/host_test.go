package simnet

import (
	"fmt"
	"strings"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

// tickLog is a Proc that logs every round it is clocked in.
type tickLog struct {
	id  mid.ProcID
	log *[]string
}

func (p *tickLog) Recv(mid.ProcID, wire.PDU) {}

func (p *tickLog) StartRound(round int) { *p.log = append(*p.log, fmt.Sprintf("r%d p%d", round, p.id)) }

func newTickHost(n int, inj faultrt.Injector) (*Host[*tickLog], *[]string) {
	h := NewHost[*tickLog](1, n, inj)
	log := new([]string)
	for i := 0; i < n; i++ {
		h.Attach(mid.ProcID(i), &tickLog{id: mid.ProcID(i), log: log})
	}
	return h, log
}

// TestRoundsOrder: every round runs before, then StartRound on each live
// process, then after; a crashed process is not clocked, and the run ends at
// maxRounds.
func TestRoundsOrder(t *testing.T) {
	h, log := newTickHost(3, faultrt.CrashAt{Proc: 1, At: sim.StartOfRound(1).Duration()})
	err := h.Rounds(2,
		func(round int) { *log = append(*log, fmt.Sprintf("r%d before", round)) },
		func(round int) bool { *log = append(*log, fmt.Sprintf("r%d after", round)); return true })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"r0 before", "r0 p0", "r0 p1", "r0 p2", "r0 after",
		"r1 before", "r1 p0", "r1 p2", "r1 after",
	}
	if got := strings.Join(*log, ", "); got != strings.Join(want, ", ") {
		t.Errorf("rounds ran\n%s\nwant\n%s", got, strings.Join(want, ", "))
	}
	if now := h.Engine().Now(); now != sim.StartOfRound(2) {
		t.Errorf("engine stopped at %d, want the start of round 2", now)
	}
}

// TestRoundsAfterStops: after returning false ends the run at that round,
// nil hooks are allowed, and a non-positive bound is refused.
func TestRoundsAfterStops(t *testing.T) {
	h, log := newTickHost(2, nil)
	if err := h.Rounds(10, nil, func(round int) bool { return round < 2 }); err != nil {
		t.Fatal(err)
	}
	want := "r0 p0, r0 p1, r1 p0, r1 p1, r2 p0, r2 p1"
	if got := strings.Join(*log, ", "); got != want {
		t.Errorf("rounds ran %s, want %s", got, want)
	}
	if err := h.Rounds(0, nil, nil); err == nil {
		t.Error("non-positive maxRounds accepted")
	}
}

// TestHostMeasures: Processed feeds the per-process Log in processing order
// and a Delay sample against the Generated instant.
func TestHostMeasures(t *testing.T) {
	h, _ := newTickHost(2, nil)
	a, b := mid.MID{Proc: 0, Seq: 1}, mid.MID{Proc: 1, Seq: 1}
	h.Generated(a)
	h.Engine().At(sim.TicksPerRTD, func() {
		h.Processed(1, a)
		h.Processed(1, b) // never generated: logged, not sampled
		h.Processed(0, a)
	})
	h.Engine().Run()
	if got := fmt.Sprint(h.Log); got != fmt.Sprint([][]mid.MID{{a}, {a, b}}) {
		t.Errorf("Log = %s", got)
	}
	if h.Delay.Count() != 2 || h.Delay.MeanRTD() != 1 {
		t.Errorf("delay: %d samples, mean %v rtd; want 2 of 1 rtd", h.Delay.Count(), h.Delay.MeanRTD())
	}
	if h.N() != 2 || h.Proc(1).id != 1 || h.Net().N() != 2 || h.Crashed(0) {
		t.Error("accessors wrong")
	}
}
