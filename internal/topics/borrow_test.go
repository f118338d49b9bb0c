package topics

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// TestRecycledRecordsArePoisoned holds the multi-group runtime to the borrow
// rule (DESIGN.md §7 rule 5): the one reader decodes every group's control
// PDUs into records from the owning shard's free list, and the shard loops
// hand them back after the session's Recv. Here every list poisons what it
// takes back, over real sockets, three groups on two shards: a record still
// read after its release turns into a malformed PDU, a lost member or a group
// that never converges — and, under `make race`, is the race it is, the
// reader writing a record a shard loop still reads.
func TestRecycledRecordsArePoisoned(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	const n, groups, shards, perGroup = 3, 3, 2, 24
	peers := freePorts(t, n)
	nodes := make([]*MultiNode, n)
	for i := range nodes {
		node, err := NewMultiNode(Config{
			Config:        core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
			Groups:        groups,
			Shards:        shards,
			Self:          mid.ProcID(i),
			Peers:         peers,
			RoundDuration: 3 * time.Millisecond,
			Logf:          t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range node.shards {
			sh.inbox.Free.Poison = true
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, node := range nodes {
		for g := uint32(0); g < groups; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < perGroup; k++ {
					if _, err := node.SendCausal(ctx, g, []byte(fmt.Sprintf("p%d-%d-%d", i, g, k))); err != nil {
						t.Errorf("member %d group %d send %d: %v", i, g, k, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitGroupConverged(t, nodes, groups, mid.SeqVector{perGroup, perGroup, perGroup}, 20*time.Second)
	for i, node := range nodes {
		for g := uint32(0); g < groups; g++ {
			if reason, left := node.Left(g); left {
				t.Errorf("member %d left group %d: %v", i, g, reason)
			}
			st, err := node.GroupStatus(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			if st.Stats.Malformed != 0 {
				t.Errorf("member %d group %d dropped %d malformed PDUs", i, g, st.Stats.Malformed)
			}
		}
	}
}
