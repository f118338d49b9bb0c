// Replicated: the client-server group structure of Section 3 — a
// replicated counter service on top of urcgc's uniform atomicity and
// causal ordering.
//
//	go run ./examples/replicated
//
// Five servers replicate a counter. Clients call through any server
// ("agent"); the request enters the group's causal order once, every server
// applies it deterministically, and the reply is accepted under a majority
// vote (the voting function v of the paper's transport tuple). One server
// crashes mid-run; calls keep completing because the vote needs only a
// majority, and the protocol's embedded crash handling removes the dead
// server without blocking.
package main

import (
	"fmt"
	"log"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/groups"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

func main() {
	const servers = 5
	cluster, err := core.NewCluster(core.ClusterConfig{
		Config:   core.Config{N: servers, K: 3, R: 8, SelfExclusion: true},
		Seed:     7,
		Injector: faultrt.CrashAt{Proc: 4, At: sim.StartOfSubrun(6).Duration()},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The replicated state machine: a counter, with deterministic replies.
	counters := make([]int, servers)
	svc, err := groups.NewService(cluster, func(server mid.ProcID, req groups.Request) []byte {
		counters[server] += int(req.Input[0])
		return []byte(fmt.Sprintf("counter=%d", counters[server]))
	})
	if err != nil {
		log.Fatal(err)
	}

	const calls = 10
	_, err = cluster.Run(core.RunOptions{
		MaxRounds: 400,
		MinRounds: 2 * 2 * calls,
		OnRound: svc.OnRound(func(round int) {
			if round%2 != 0 || round/2 >= calls {
				return
			}
			k := uint32(round / 2)
			agent := mid.ProcID(int(k) % 4) // rotate among the surviving agents
			if _, err := svc.Call(agent, groups.Request{
				Client: 1, CallID: k, Input: []byte{1},
			}, groups.MajorityVote(servers)); err != nil {
				log.Fatal(err)
			}
		}),
		StopWhenQuiescent: true,
		DrainSubruns:      4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("client 1 issued 10 increments through rotating agents (server 4 crashed at subrun 6):")
	for k := uint32(0); k < calls; k++ {
		out, done := svc.Done(1, k)
		status := "TIMED OUT"
		if done {
			status = string(out)
		}
		fmt.Printf("  call %2d -> %-12s (%d replies gathered)\n", k, status, len(svc.Replies(1, k)))
	}
	fmt.Printf("\nsurvivors' replicated counters: ")
	for _, p := range cluster.ActiveSet() {
		fmt.Printf("server%d=%d ", p, counters[p])
	}
	fmt.Println("\nuniform atomicity + causal order = state machine replication; the crash never blocked a call")
}
