// Faultdemo: the failure-handling machinery traced step by step in the
// deterministic simulator — omission recovery from history, crash
// detection through the attempts counters, and the agreed destruction of
// an orphaned sequence.
//
//	go run ./examples/faultdemo
//
// The scenario (five processes, K=2):
//
//  1. p0 broadcasts message p0#1, but every copy is lost (send omission).
//  2. p0 broadcasts p0#2, which arrives everywhere; since p0#2 causally
//     depends on p0#1, every receiver parks it in the waiting list.
//  3. Before any recovery from p0's history can complete, p0 crashes.
//  4. The rotating coordinators notice p0's silence; after K subruns the
//     attempts counter saturates and p0 is declared crashed.
//  5. The coordinator's decision exposes the gap: min_waiting[p0]=2 while
//     max_processed[p0]=0 among the living. The group agrees p0#1 is lost
//     forever and destroys p0#2 everywhere — uniform atomicity preserved:
//     nobody processes it.
//  6. Ordinary traffic keeps flowing throughout; the survivors converge.
package main

import (
	"fmt"
	"log"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

func main() {
	inj := faultrt.Multi{
		// All of p0's sends in subrun 0 vanish (that is where p0#1 goes).
		faultrt.During{
			From: 0, To: sim.StartOfSubrun(1).Duration(),
			Inner: faultrt.OnlyProc{Proc: 0, Inner: &faultrt.DropEvery{N: 1, Side: faultrt.AtSend}},
		},
		// p0 crashes shortly after broadcasting p0#2.
		faultrt.CrashAt{Proc: 0, At: (sim.StartOfRound(2) + 400).Duration()},
	}
	c, err := core.NewCluster(core.ClusterConfig{
		Config:   core.Config{N: 5, K: 2, R: 8, SelfExclusion: true},
		Seed:     8,
		Injector: inj,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Narrate the protocol's visible actions.
	lastAlive := 5
	c.OnDecision = func(p mid.ProcID, d *wire.Decision) {
		if p != 1 { // narrate from one vantage point
			return
		}
		alive := 0
		for _, a := range d.Alive {
			if a {
				alive++
			}
		}
		if alive < lastAlive {
			fmt.Printf("%5.1f rtd  decision of subrun %d declares a crash: alive=%v attempts=%v\n",
				c.Engine().Now().RTD(), d.Subrun, d.Alive, d.Attempts)
			lastAlive = alive
		}
		if d.FullGroup && d.MinWaiting[0] > d.MaxProcessed[0]+1 && !d.Alive[0] {
			fmt.Printf("%5.1f rtd  decision exposes the orphan gap: min_waiting[p0]=%d > max_processed[p0]+1=%d\n",
				c.Engine().Now().RTD(), d.MinWaiting[0], d.MaxProcessed[0]+1)
		}
	}
	c.Net().OnDeliver = func(src, dst mid.ProcID, pdu wire.PDU) {
		switch v := pdu.(type) {
		case *wire.Recover:
			fmt.Printf("%5.1f rtd  p%d asks p%d to recover %v from history\n",
				c.Engine().Now().RTD(), v.Requester, dst, v.Wants)
		case *wire.Retransmit:
			fmt.Printf("%5.1f rtd  p%d answers p%d with %d messages from history\n",
				c.Engine().Now().RTD(), v.Responder, dst, len(v.Msgs))
		}
	}

	fmt.Println("timeline:")
	res, err := c.Run(core.RunOptions{
		MaxRounds: 200,
		MinRounds: 40,
		OnRound: func(round int) {
			switch round {
			case 0:
				must(c.Submit(0, []byte("lost forever"), nil))
				fmt.Printf("%5.1f rtd  p0 broadcasts p0#1 — every copy will be dropped\n", c.Engine().Now().RTD())
			case 2:
				must(c.Submit(0, []byte("the orphan"), nil))
				fmt.Printf("%5.1f rtd  p0 broadcasts p0#2 (depends on p0#1), then crashes\n", c.Engine().Now().RTD())
			case 4:
				for i := 1; i < 5; i++ {
					must(c.Submit(mid.ProcID(i), []byte("business as usual"), nil))
				}
				fmt.Printf("%5.1f rtd  p1..p4 keep generating ordinary traffic\n", c.Engine().Now().RTD())
			}
		},
		StopWhenQuiescent: true,
		DrainSubruns:      4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\noutcome:")
	discards := 0
	for _, p := range c.ActiveSet() {
		discards += len(c.DiscardLog[p])
	}
	fmt.Printf("  survivors %v converged at %.1f rtd\n", c.ActiveSet(), sim.StartOfRound(res.QuiescentAtRound).RTD())
	fmt.Printf("  p0#2 destroyed by agreement at %d processes; processed by none\n", discards)
	for _, p := range c.ActiveSet() {
		v := c.Proc(p).Processed()
		fmt.Printf("  p%d processed %v (p0's column is 0: uniform atomicity held)\n", p, v)
		break
	}
}

func must(id mid.MID, err error) {
	if err != nil {
		log.Fatal(err)
	}
	_ = id
}
