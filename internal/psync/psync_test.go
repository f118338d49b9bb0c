package psync

import (
	"fmt"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

func everyOther(c *Cluster, perProc int) func(round int) {
	return func(round int) {
		if round%2 != 0 || round/2 >= perProc {
			return
		}
		for i := 0; i < c.N(); i++ {
			if c.Crashed(mid.ProcID(i)) {
				continue
			}
			c.Submit(mid.ProcID(i), []byte(fmt.Sprintf("m%d-%d", i, round/2)))
		}
	}
}

func TestReliableConversation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Config: Config{N: 4, K: 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(120, everyOther(c, 10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v := c.Proc(mid.ProcID(i)).Delivered()
		for q := 0; q < 4; q++ {
			if v[q] != 10 {
				t.Errorf("proc %d delivered %d of p%d's, want 10", i, v[q], q)
			}
		}
	}
	// A delay sample needs the MID Submit returned to be the one delivered:
	// 10 messages x 4 senders x 4 deliverers.
	if got := c.Delay.Count(); got != 160 {
		t.Errorf("delay samples = %d, want 160", got)
	}
}

func TestContextGraphOrdering(t *testing.T) {
	// b is sent by p1 after delivering a from p0, so every log must show a
	// before b.
	c, err := NewCluster(ClusterConfig{Config: Config{N: 3, K: 3}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(40, func(round int) {
		switch round {
		case 0:
			c.Submit(0, []byte("a"))
		case 2:
			if c.Proc(1).Delivered()[0] != 1 {
				t.Fatal("p1 should have delivered a")
			}
			c.Submit(1, []byte("b"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		posA, posB := -1, -1
		for j, id := range c.Log[i] {
			if id == (mid.MID{Proc: 0, Seq: 1}) {
				posA = j
			}
			if id == (mid.MID{Proc: 1, Seq: 1}) {
				posB = j
			}
		}
		if posA < 0 || posB < 0 || posA > posB {
			t.Errorf("proc %d: a at %d, b at %d", i, posA, posB)
		}
	}
}

func TestNakRepairsOmissions(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Config: Config{N: 4, K: 4},
		Seed:   3,
		Injector: faultrt.During{
			From: 0, To: (8 * sim.TicksPerRTD).Duration(),
			Inner: faultrt.NewDropRate(0.05, faultrt.AtSend, 99),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(300, everyOther(c, 12)); err != nil {
		t.Fatal(err)
	}
	naks := 0
	for i := 0; i < 4; i++ {
		naks += c.Proc(mid.ProcID(i)).Stats.Naks
		v := c.Proc(mid.ProcID(i)).Delivered()
		for q := 0; q < 4; q++ {
			if v[q] != 12 {
				t.Errorf("proc %d delivered %d of p%d's, want 12", i, v[q], q)
			}
		}
	}
	if naks == 0 {
		t.Error("expected NAK repair traffic under omissions")
	}
}

func TestFlowControlDeletesBeyondBound(t *testing.T) {
	// Half of everything addressed to p3 is lost for 10 rtd, so arrivals
	// referencing missing parents pile up in its waiting list; the tight
	// bound forces deletions (Psync's flow-control pathology: drops raise
	// the effective omission rate).
	c, err := NewCluster(ClusterConfig{
		Config: Config{N: 4, K: 40, WaitBound: 2},
		Seed:   4,
		Injector: faultrt.During{
			From: 0, To: (10 * sim.TicksPerRTD).Duration(),
			Inner: faultrt.OnlyProc{Proc: 3, Inner: faultrt.NewDropRate(0.5, faultrt.AtRecv, 7)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(700, everyOther(c, 25)); err != nil {
		t.Fatal(err)
	}
	p3 := c.Proc(3)
	if p3.Stats.Dropped == 0 {
		t.Error("tight WaitBound should have deleted messages")
	}
	if p3.WaitingLen() > 2 {
		t.Errorf("waiting %d exceeds bound", p3.WaitingLen())
	}
}

func TestMaskOutOnCrash(t *testing.T) {
	failAt := sim.StartOfSubrun(6)
	c, err := NewCluster(ClusterConfig{
		Config:   Config{N: 4, K: 2},
		Seed:     5,
		Injector: faultrt.CrashAt{Proc: 2, At: failAt.Duration()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(400, everyOther(c, 30)); err != nil {
		t.Fatal(err)
	}
	suspended := int64(0)
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue
		}
		p := c.Proc(mid.ProcID(i))
		if p.Alive(2) {
			t.Errorf("proc %d still has 2 unmasked", i)
		}
		if p.Suspended() {
			t.Errorf("proc %d still suspended", i)
		}
		if p.Stats.Masks == 0 {
			t.Errorf("proc %d never completed mask_out", i)
		}
		suspended += p.Stats.SuspendedT
	}
	if suspended == 0 {
		t.Error("mask_out should have blocked the conversation")
	}
	// Survivors converge.
	ref := c.Proc(0).Delivered()
	for i := 1; i < 4; i++ {
		if i == 2 {
			continue
		}
		if !ref.Equal(c.Proc(mid.ProcID(i)).Delivered()) {
			t.Errorf("survivor %d diverges: %v vs %v", i, c.Proc(mid.ProcID(i)).Delivered(), ref)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if (Config{N: 0, K: 1}).Validate() == nil {
		t.Error("N=0")
	}
	if (Config{N: 2, K: 0}).Validate() == nil {
		t.Error("K=0")
	}
	if (Config{N: 2, K: 1, WaitBound: -1}).Validate() == nil {
		t.Error("negative bound")
	}
	if (Config{N: 2, K: 1, WaitBound: 5}).Validate() != nil {
		t.Error("valid rejected")
	}
}

func TestEncodedSizes(t *testing.T) {
	n := &Nak{Requester: 1, Wants: []mid.MID{{Proc: 0, Seq: 1}}}
	if got := n.EncodedSize(); got != 1+4+2+8 {
		t.Errorf("Nak size = %d", got)
	}
	m := &Mask{Dead: make([]bool, 9), MaxAvail: mid.NewSeqVector(9)}
	if got := m.EncodedSize(); got != 1+4+4+1+2+36 {
		t.Errorf("Mask size = %d", got)
	}
}
