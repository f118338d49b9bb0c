package rt

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// TestRecycledSubmissionSeesNoStaleSignal drives the one hazard of reusing
// the Send rendezvous. Sends abandoned by their context — some before the
// loop has answered Res, some with the message in flight behind a
// four-message flow-control valve — leave the loop about to answer a
// Submission nobody waits on; over a thousand further Sends then run through
// the pool. Had an abandoned Submission been recycled, a later Send would
// take the loop's late answer for its own: a stale Res reports another
// message's MID (caught by matching every reported MID to the payload
// indicated under it), a stale Confirm returns before the message is
// processed (caught by sampling the member right after the Send).
func TestRecycledSubmissionSeesNoStaleSignal(t *testing.T) {
	cfg := liveConfig(3)
	cfg.RoundDuration = 200 * time.Microsecond
	cfg.HistoryThreshold = 4
	c := startCluster(t, cfg)
	n := c.Node(1)

	var (
		mu        sync.Mutex
		indicated = map[mid.MID]uint64{} // what the member processed under each of its own MIDs
		reported  = map[mid.MID]uint64{} // what a Send that was told the MID had submitted
		confirmed int
		abandoned int
		wg        sync.WaitGroup
	)
	go func() {
		for ind := range n.Indications() {
			if ind.Msg.ID.Proc == 1 {
				if len(ind.Msg.Payload) != 8 {
					t.Errorf("%v carries %d payload bytes: a Submission was recycled while the loop still held it", ind.Msg.ID, len(ind.Msg.Payload))
					continue
				}
				mu.Lock()
				indicated[ind.Msg.ID] = binary.BigEndian.Uint64(ind.Msg.Payload)
				mu.Unlock()
			}
		}
	}()
	const workers, perWorker = 8, 172
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tag := uint64(w)<<32 | uint64(i)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%4 == w%4 { // a quarter of the Sends give up: after 1us .. 300us
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+43*(i%8))*time.Microsecond)
				}
				id, err := n.Send(ctx, binary.BigEndian.AppendUint64(nil, tag), nil)
				cancel()
				mu.Lock()
				if id != (mid.MID{}) {
					if _, dup := reported[id]; dup {
						t.Errorf("MID %v reported to two Sends", id)
					}
					reported[id] = tag
				}
				if err != nil {
					abandoned++
				} else {
					confirmed++
				}
				mu.Unlock()
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("Send: %v", err)
					}
					continue
				}
				var processed mid.Seq
				if err := n.Snapshot(context.Background(), func(p *core.Process) { processed = p.Processed()[1] }); err != nil {
					t.Error(err)
					return
				}
				if processed < id.Seq {
					t.Errorf("Send of %v confirmed with the member at seq %d: a recycled Submission saw a stale Confirm", id, processed)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d Sends confirmed, %d abandoned", confirmed, abandoned)
	if confirmed < 1000 || abandoned == 0 {
		t.Errorf("%d confirmed and %d abandoned Sends: the reuse path was not exercised", confirmed, abandoned)
	}
	// Every submitted message, abandoned or not, is processed in the end: wait
	// for the indications to say so, then hold every reported MID to its payload.
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		missing := 0
		for id := range reported {
			if _, ok := indicated[id]; !ok {
				missing++
			}
		}
		mu.Unlock()
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d reported MIDs were never indicated", missing)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, tag := range reported {
		if indicated[id] != tag {
			t.Errorf("a Send that submitted %#x was told %v, which carries %#x: a recycled Submission saw a stale Res", tag, id, indicated[id])
		}
	}
	if leaked := n.m.sessions[0].conf.Waiting(); leaked != 0 {
		t.Errorf("%d waiter entries left behind", leaked)
	}
}

// TestLeaveFailsEveryWaiterExactlyOnce: with Confirm signalled by a send
// instead of a close, a member that leaves must still wake every Send
// waiting on it — once each, none missed, none signalled twice — and fail
// them; the channels it leaves behind must be empty for the next Send.
func TestLeaveFailsEveryWaiterExactlyOnce(t *testing.T) {
	var conf confirms
	p, err := core.NewProcess(0, core.Config{N: 3, K: 3, R: 8, HistoryThreshold: 1}, nopTransport{},
		core.Callbacks{OnProcess: func(m *causal.Message) { conf.Processed(m.ID) }, OnLeave: conf.Leave})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 16
	subs := make([]*submission, waiters+1)
	var head *submission
	for i := len(subs) - 1; i >= 0; i-- {
		subs[i] = newSubmission([]byte("held"), nil, false)
		subs[i].next, head = head, subs[i]
	}
	// One loop event runs the chain: the first message leaves on submit and
	// closes the valve, the rest stay queued with their waiters registered.
	conf.Submit(p, nil, head)
	in := newInbox(1, make(chan struct{}))
	errs := make(chan error, len(subs))
	for _, s := range subs {
		s := s
		go func() {
			_, err := conf.Await(context.Background(), in, nil, s)
			errs <- err
		}()
	}
	if err := <-errs; err != nil {
		t.Fatalf("the message that left before the valve closed: %v", err)
	}
	if got := conf.Waiting(); got != waiters {
		t.Fatalf("%d waiters registered, want %d", got, waiters)
	}
	conf.Leave(core.Suicide)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "left the group") {
				t.Errorf("waiter woke with %v, want the member-left error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d waiters were released by Leave", i, waiters)
		}
	}
	conf.Leave(core.Suicide) // idempotent: nobody left to signal
	if got := conf.Waiting(); got != 0 {
		t.Errorf("%d waiters still registered after Leave", got)
	}
	// Whatever the pool hands out next, recycled or new, carries no signal.
	for i := 0; i < 2*len(subs); i++ {
		if s := newSubmission(nil, nil, false); len(s.Res) != 0 || len(s.Confirm) != 0 || s.next != nil {
			t.Fatalf("pooled Submission carries state: %d Res, %d Confirm, next %v", len(s.Res), len(s.Confirm), s.next)
		}
	}
}
