// Quickstart: a five-member urcgc group exchanging causally related
// messages through the Section 5 service primitives, which are the methods
// of an rt.Member: Send is urcgc-data.Rq, returning with its Conf once the
// local entity has processed the message, and Indications(group) is the
// urcgc-data.Ind stream, every processed message in causal order.
//
//	go run ./examples/quickstart
//
// Member 0 asks a question; every member that sees it replies with a
// message explicitly labelled as causally dependent on the question
// (Definition 3.1's application-specified causality). The protocol
// guarantees each member processes the question before any reply, while
// the replies themselves — mutually concurrent — may interleave freely.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/rt"
)

func main() {
	const n = 5
	mesh, err := rt.NewMesh(rt.Config{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	mesh.Start()
	defer mesh.Stop()

	// Every member hosts group 0; its indication stream is its SAP's Ind.
	ind := make([]<-chan rt.Indication, n)
	for i := range ind {
		if ind[i], err = mesh.Node(mid.ProcID(i)).Indications(0); err != nil {
			log.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Member 0 asks; the Confirm returns once the local entity processed it.
	question, err := mesh.Node(0).Send(ctx, 0, []byte("what is the plan?"), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("member 0 asked %v\n", question)

	// Members 1..4 reply once they have seen the question, labelling the
	// reply as causally dependent on it.
	for i := 1; i < n; i++ {
		i := i
		go func() {
			for in := range ind[i] {
				if in.Msg.ID != question {
					continue
				}
				reply, err := mesh.Node(mid.ProcID(i)).Send(ctx, 0,
					[]byte(fmt.Sprintf("member %d: sounds good", i)),
					mid.DepList{question})
				if err != nil {
					log.Printf("member %d reply failed: %v", i, err)
					return
				}
				fmt.Printf("member %d replied %v (depends on %v)\n", i, reply, question)
				return
			}
		}()
	}

	// Member 0 collects everything: the question is processed first
	// everywhere; the four replies arrive in some interleaving.
	got := 0
	for got < n-1 {
		select {
		case in := <-ind[0]:
			fmt.Printf("member 0 processed %v: %q (deps %v)\n", in.Msg.ID, in.Msg.Payload, in.Msg.Deps)
			if in.Msg.ID != question { // its own question is indicated too
				got++
			}
		case <-ctx.Done():
			log.Fatal("timed out collecting replies")
		}
	}
	fmt.Println("all replies processed after their cause — causal order held")
}
