package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

func data(p mid.ProcID, s mid.Seq) *wire.Data {
	return &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: p, Seq: s}}}
}

type recorder struct {
	got []wire.PDU
	src []mid.ProcID
	at  []sim.Time
	eng *sim.Engine
}

func (r *recorder) Recv(src mid.ProcID, pdu wire.PDU) {
	r.got = append(r.got, pdu)
	r.src = append(r.src, src)
	r.at = append(r.at, r.eng.Now())
}

func TestSendDelivers(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 3, nil)
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if len(rec.got) != 1 || rec.src[0] != 0 {
		t.Fatalf("got %d deliveries", len(rec.got))
	}
	if rec.at[0] <= 0 || rec.at[0] >= sim.TicksPerRound {
		t.Errorf("delivery at %d, want within the round", rec.at[0])
	}
	if nw.Load().TotalMsgs() != 1 {
		t.Errorf("load = %v", nw.Load())
	}
}

func TestSelfSendIgnored(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, nil)
	rec := &recorder{eng: eng}
	nw.Attach(0, rec)
	nw.Send(0, 0, data(0, 1))
	eng.Run()
	if len(rec.got) != 0 {
		t.Error("self-send must not traverse the network")
	}
	if nw.Load().TotalMsgs() != 0 {
		t.Error("self-send must not be accounted")
	}
}

func TestMulticastFanout(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 4, nil)
	var count int
	for p := mid.ProcID(1); p < 4; p++ {
		nw.Attach(p, HandlerFunc(func(mid.ProcID, wire.PDU) { count++ }))
	}
	nw.Multicast(0, []mid.ProcID{0, 1, 2, 3}, data(0, 1))
	eng.Run()
	if count != 3 {
		t.Errorf("deliveries = %d, want 3 (self skipped)", count)
	}
	if nw.Load().Counts[wire.KindData] != 3 {
		t.Errorf("accounted %d sends", nw.Load().Counts[wire.KindData])
	}
}

func TestCrashedSenderSendsNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, faultrt.CrashAt{Proc: 0, At: 0})
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if len(rec.got) != 0 {
		t.Error("crashed sender must emit nothing")
	}
	if nw.Load().TotalMsgs() != 0 {
		t.Error("crashed sends are not offered load")
	}
}

func TestCrashedReceiverAbsorbsNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, faultrt.CrashAt{Proc: 1, At: 0})
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if len(rec.got) != 0 {
		t.Error("crashed receiver must get nothing")
	}
	if nw.Drops() != 1 {
		t.Errorf("Drops = %d", nw.Drops())
	}
}

// consultLog is an injector that records every consultation in order, with
// the offered load the network had accounted when it asked.
type consultLog struct {
	nw      *Network
	crashed mid.ProcID
	verdict faultrt.Action
	calls   []string
}

func (c *consultLog) Crashed(p mid.ProcID, now time.Duration) bool {
	c.calls = append(c.calls, fmt.Sprintf("crashed %d @%v load=%d", p, now, c.nw.Load().TotalMsgs()))
	return p == c.crashed
}

func (c *consultLog) Send(group uint32, src, dst mid.ProcID, now time.Duration) faultrt.Action {
	c.calls = append(c.calls, fmt.Sprintf("send g%d %d->%d @%v load=%d", group, src, dst, now, c.nw.Load().TotalMsgs()))
	return c.verdict
}

func (c *consultLog) Recv(group uint32, src, dst mid.ProcID, now time.Duration) faultrt.Action {
	c.calls = append(c.calls, fmt.Sprintf("recv g%d %d->%d @%v load=%d", group, src, dst, now, c.nw.Load().TotalMsgs()))
	return c.verdict
}

func newConsultNet(n int, crashed mid.ProcID, verdict faultrt.Action) (*sim.Engine, *Network, *consultLog) {
	eng := sim.NewEngine(1)
	log := &consultLog{crashed: crashed, verdict: verdict}
	nw := New(eng, n, log)
	log.nw = nw
	nw.SetLatency(FixedLatency(100))
	for p := 0; p < n; p++ {
		nw.Attach(mid.ProcID(p), HandlerFunc(func(mid.ProcID, wire.PDU) {}))
	}
	return eng, nw, log
}

// TestInjectorConsultationSequence pins the order in which the network
// consults its injector. Counter- and rng-based injectors answer in
// consultation order, so every simulated figure depends on it: per send,
// Crashed(src), then the load accounting, then Send; per delivery,
// Crashed(dst) and, only for a live destination, Recv. The group is
// always 0 and the clock reads one microsecond per tick.
func TestInjectorConsultationSequence(t *testing.T) {
	eng, nw, log := newConsultNet(3, 2, faultrt.Action{})
	nw.Multicast(0, []mid.ProcID{0, 1, 2}, data(0, 1))
	eng.Run()
	want := []string{
		"crashed 0 @0s load=0",
		"send g0 0->1 @0s load=1",
		"crashed 0 @0s load=1",
		"send g0 0->2 @0s load=2",
		"crashed 1 @100µs load=2",
		"recv g0 0->1 @100µs load=2",
		"crashed 2 @100µs load=2",
	}
	if got := strings.Join(log.calls, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("consultations:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if nw.Drops() != 1 {
		t.Errorf("Drops = %d, want 1 (the crashed destination)", nw.Drops())
	}
	if !nw.Crashed(2) || nw.Crashed(0) {
		t.Error("Network.Crashed must answer from the injector")
	}
}

// TestDelayAndDupVerdictsRefused: the sub-round latency model has no place
// for a delayed or duplicated datagram, so such a verdict must stop the run
// rather than be silently ignored.
func TestDelayAndDupVerdictsRefused(t *testing.T) {
	for _, v := range []faultrt.Action{{Delay: time.Millisecond}, {Dup: 1}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "internal/rt") {
					t.Errorf("verdict %+v: recovered %v, want a panic naming internal/rt", v, r)
				}
			}()
			_, nw, _ := newConsultNet(2, -1, v)
			nw.Send(0, 1, data(0, 1))
		}()
	}
}

func TestSendOmission(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, &faultrt.DropEvery{N: 2, Side: faultrt.AtSend})
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	for i := 0; i < 6; i++ {
		nw.Send(0, 1, data(0, mid.Seq(i+1)))
	}
	eng.Run()
	if len(rec.got) != 3 {
		t.Errorf("deliveries = %d, want 3", len(rec.got))
	}
	// Offered load counts all 6; drops count 3.
	if nw.Load().TotalMsgs() != 6 || nw.Drops() != 3 {
		t.Errorf("load=%d drops=%d", nw.Load().TotalMsgs(), nw.Drops())
	}
}

func TestDeliveryWithinRound(t *testing.T) {
	eng := sim.NewEngine(7)
	nw := New(eng, 2, nil)
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	// Send at the start of round 3.
	eng.At(sim.StartOfRound(3), func() { nw.Send(0, 1, data(0, 1)) })
	eng.Run()
	if len(rec.got) != 1 {
		t.Fatal("no delivery")
	}
	if got := sim.RoundOf(rec.at[0]); got != 3 {
		t.Errorf("delivered in round %d, want 3", got)
	}
}

func TestFixedLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, nil)
	nw.SetLatency(FixedLatency(123))
	rec := &recorder{eng: eng}
	nw.Attach(1, rec)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if rec.at[0] != 123 {
		t.Errorf("delivered at %d", rec.at[0])
	}
}

func TestUnattachedDestinationDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, nil)
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if nw.Drops() != 1 {
		t.Errorf("Drops = %d", nw.Drops())
	}
}

func TestOnDeliverHook(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, 2, nil)
	nw.Attach(1, HandlerFunc(func(mid.ProcID, wire.PDU) {}))
	var hooked int
	nw.OnDeliver = func(src, dst mid.ProcID, pdu wire.PDU) {
		hooked++
		if src != 0 || dst != 1 || pdu.Kind() != wire.KindData {
			t.Errorf("hook saw %d->%d %v", src, dst, pdu.Kind())
		}
	}
	nw.Send(0, 1, data(0, 1))
	eng.Run()
	if hooked != 1 {
		t.Errorf("hooked = %d", hooked)
	}
}

func TestAttachOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(sim.NewEngine(1), 2, nil).Attach(5, HandlerFunc(func(mid.ProcID, wire.PDU) {}))
}

func TestMatrixLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	base := [][]sim.Time{{0, 100}, {200, 0}}
	l := MatrixLatency(base, 0)
	if got := l(0, 1, eng); got != 100 {
		t.Errorf("latency(0,1) = %d", got)
	}
	if got := l(1, 0, eng); got != 200 {
		t.Errorf("latency(1,0) = %d", got)
	}
	// Out-of-matrix pairs fall back to half a round.
	if got := l(5, 9, eng); got != sim.TicksPerRound/2 {
		t.Errorf("fallback = %d", got)
	}
	// Clamping: zero base becomes >= 1; huge base stays inside the round.
	if got := l(0, 0, eng); got < 1 {
		t.Errorf("clamped low = %d", got)
	}
	huge := MatrixLatency([][]sim.Time{{2 * sim.TicksPerRound}}, 0)
	if got := huge(0, 0, eng); got >= sim.TicksPerRound {
		t.Errorf("clamped high = %d", got)
	}
}

func TestTwoSiteLatency(t *testing.T) {
	eng := sim.NewEngine(2)
	l := TwoSiteLatency(map[mid.ProcID]bool{0: true, 1: true}, 50, 400, 0)
	if got := l(0, 1, eng); got != 50 {
		t.Errorf("local = %d", got)
	}
	if got := l(0, 2, eng); got != 400 {
		t.Errorf("remote = %d", got)
	}
	if got := l(2, 3, eng); got != 50 {
		t.Errorf("other-site local = %d", got)
	}
}

// TestTwoSiteProtocolRun: the protocol converges over a heterogeneous
// topology; delays grow with the remote link but nothing else changes.
func TestTwoSiteProtocolRun(t *testing.T) {
	// Exercised at the protocol level in core (latency is injected through
	// the cluster config); here verify deliveries respect the model.
	eng := sim.NewEngine(3)
	nw := New(eng, 4, nil)
	nw.SetLatency(TwoSiteLatency(map[mid.ProcID]bool{0: true, 1: true}, 50, 400, 10))
	var localAt, remoteAt sim.Time
	nw.Attach(1, HandlerFunc(func(mid.ProcID, wire.PDU) { localAt = eng.Now() }))
	nw.Attach(2, HandlerFunc(func(mid.ProcID, wire.PDU) { remoteAt = eng.Now() }))
	nw.Send(0, 1, data(0, 1))
	nw.Send(0, 2, data(0, 2))
	eng.Run()
	if !(localAt < remoteAt) {
		t.Errorf("local %d should beat remote %d", localAt, remoteAt)
	}
}
