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
	"urcgc/internal/wire"
)

// TestRecycledSubmissionSeesNoStaleSignal drives the one hazard of reusing
// the Send rendezvous. Sends abandoned by their context — some before the
// loop has submitted them, some with the message in flight behind a
// four-message flow-control valve — leave the loop about to signal a
// Submission nobody waits on; over a thousand further Sends then run through
// the pool. Had an abandoned Submission been recycled, a later Send would
// take the loop's late signal for its own: it would report a MID that is not
// its message's (caught by matching every reported MID to the payload
// indicated under it, and by refusing a confirmed zero MID), or return
// before its message is processed (caught by sampling the member right after
// the Send).
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
				if err == nil && id == (mid.MID{}) {
					t.Errorf("Send confirmed with a zero MID: a recycled Submission saw a stale signal")
				}
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
					t.Errorf("Send of %v confirmed with the member at seq %d: a recycled Submission saw a stale signal", id, processed)
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
			t.Errorf("a Send that submitted %#x was told %v, which carries %#x: a recycled Submission saw a stale signal", tag, id, indicated[id])
		}
	}
	if leaked := n.m.sessions[0].conf.Waiting(); leaked != 0 {
		t.Errorf("%d waiter entries left behind", leaked)
	}
}

// TestLeaveFailsEveryWaiterExactlyOnce: with done signalled by a send
// instead of a close, a member that leaves must still wake every Send
// waiting on it — once each, none missed, none signalled twice — and fail
// them; the channels it leaves behind must be empty for the next Send.
func TestLeaveFailsEveryWaiterExactlyOnce(t *testing.T) {
	var conf confirms
	p := valveProcess(t, &conf)
	const waiters = 16
	subs, head := heldChain(waiters + 1)
	// One loop event runs the chain: the first message leaves on submit and
	// closes the valve, the rest stay queued with their waiters registered.
	conf.Submit(p, head, nil)
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
		if s := newSubmission(nil, nil, false); len(s.done) != 0 || s.next != nil {
			t.Fatalf("pooled Submission carries state: %d signals, next %v", len(s.done), s.next)
		}
	}
}

// valveProcess is member 0 of a three-member group, wired to conf the way a
// session wires its process, whose flow-control valve closes after one
// message: with no peer ever answering, the first submission leaves on
// submit and is processed locally, and every later one stays queued with its
// waiter registered. The test plays the loop goroutine.
func valveProcess(t *testing.T, conf *confirms) *core.Process {
	t.Helper()
	p, err := core.NewProcess(0, core.Config{N: 3, K: 3, R: 8, HistoryThreshold: 1}, nopTransport{},
		core.Callbacks{OnProcess: func(m *causal.Message) { conf.Processed(m.ID) }, OnLeave: conf.Leave})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// heldChain takes n submissions from the pool, chained as one coalescer
// window.
func heldChain(n int) (subs []*submission, head *submission) {
	subs = make([]*submission, n)
	for i := n - 1; i >= 0; i-- {
		subs[i] = newSubmission([]byte("held"), nil, false)
		subs[i].next, head = head, subs[i]
	}
	return subs, head
}

// TestSubmitSignalsOnlyOnProcessing pins the one-signal rendezvous: a submit
// that succeeds registers the waiter and signals nothing, so a confirmed Send
// does one channel receive. In a window of 17 run behind a valve that closes
// after one message, the message that left on submit holds exactly its
// processing signal, and each queued one is registered with an empty done.
func TestSubmitSignalsOnlyOnProcessing(t *testing.T) {
	var conf confirms
	p := valveProcess(t, &conf)
	subs, head := heldChain(17)
	conf.Submit(p, head, nil)
	if got := len(subs[0].done); got != 1 {
		t.Errorf("the message that left on submit holds %d signals, want 1", got)
	}
	for i, s := range subs[1:] {
		if got := len(s.done); got != 0 {
			t.Errorf("queued submission %d holds %d signals before it is processed, want 0", i+1, got)
		}
		if w := conf.waiters[s.id]; s.id == (mid.MID{}) || w != s {
			t.Errorf("queued submission %d (%v) is not the registered waiter", i+1, s.id)
		}
	}
	if got := conf.Waiting(); got != len(subs)-1 {
		t.Errorf("%d waiters registered, want %d", got, len(subs)-1)
	}
}

// TestEverySendEndsOnce runs a Send to each way it can end, through a
// coalescer as Send runs it, with the test playing the loop: each ends in one
// Await with its error and MID, leaves no waiter behind and no Send counted
// outstanding — a count left behind would keep every later Send from finding
// the session quiet — so a following lone Send's window is posted at once.
// After a Leave that would signal any waiter still registered, the pool
// hands out only clean records. A Send abandoned by its context or a stop is
// never recycled, and nothing signals its submission after it returned.
func TestEverySendEndsOnce(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	tests := []struct {
		name string
		// send plays the loop and ends one Send; abandoned is its submission
		// when Await must not have recycled it.
		send    func(t *testing.T, r *sendRig) (id mid.MID, err error, abandoned *submission)
		wantErr string // a substring of the error; empty for a confirm
		wantID  bool
	}{
		{"submit refused", func(t *testing.T, r *sendRig) (mid.MID, error, *submission) {
			s := newSubmission(make([]byte, wire.MaxPayload+1), nil, false)
			r.send(t, s)
			id, err := r.conf.Await(context.Background(), r.in, nil, s)
			return id, err, nil
		}, wire.ErrTooLarge.Error(), false},
		{"processed", func(t *testing.T, r *sendRig) (mid.MID, error, *submission) {
			s := newSubmission([]byte("sent"), nil, false)
			r.send(t, s)
			id, err := r.conf.Await(context.Background(), r.in, nil, s)
			return id, err, nil
		}, "", true},
		{"member leaves", func(t *testing.T, r *sendRig) (mid.MID, error, *submission) {
			r.closeValve(t)
			s := newSubmission([]byte("held"), nil, false)
			r.send(t, s)
			r.conf.Leave(core.Suicide)
			id, err := r.conf.Await(context.Background(), r.in, nil, s)
			return id, err, nil
		}, "left the group", true},
		{"member killed", func(t *testing.T, r *sendRig) (mid.MID, error, *submission) {
			s := newSubmission([]byte("after the crash"), nil, false)
			r.coal.Add(s)
			killed := &session{m: &Member{}}
			killed.m.Kill()
			killed.submit((<-r.in.c).sub)
			id, err := r.conf.Await(context.Background(), r.in, nil, s)
			return id, err, nil
		}, "fail-stopped", false},
		{"coalescer stop", func(t *testing.T, r *sendRig) (mid.MID, error, *submission) {
			inFlight := newSubmission([]byte("in flight"), nil, false) // keeps the session from looking quiet
			r.coal.Add(inFlight)
			s := newSubmission([]byte("pending"), nil, false)
			r.coal.Add(s)
			r.coal.Stop()
			id, err := r.conf.Await(context.Background(), r.in, nil, s)
			r.run(t)
			if _, err := r.conf.Await(context.Background(), r.in, nil, inFlight); err != nil {
				t.Errorf("the Send in flight: %v", err)
			}
			return id, err, nil
		}, ErrCoalescerStopped.Error(), false},
		{"member stop with the window in the inbox", func(t *testing.T, r *sendRig) (mid.MID, error, *submission) {
			s := newSubmission([]byte("queued"), nil, false)
			r.coal.Add(s) // a lone Send: its window is posted at once
			if len(r.in.c) != 1 {
				t.Fatalf("%d windows in the inbox, want 1", len(r.in.c))
			}
			close(r.stop) // Member.Stop: the loop exits, then the coalescer stops
			r.coal.Stop()
			id, err := r.conf.Await(context.Background(), r.in, nil, s)
			return id, err, s
		}, errStopped.Error(), false},
		{"ctx ends before the submit", func(t *testing.T, r *sendRig) (mid.MID, error, *submission) {
			s := newSubmission([]byte("queued"), nil, false)
			r.coal.Add(s)
			id, err := r.conf.Await(canceled, r.in, nil, s)
			return id, err, s
		}, context.Canceled.Error(), false},
		{"ctx ends after the submit", func(t *testing.T, r *sendRig) (mid.MID, error, *submission) {
			r.closeValve(t)
			s := newSubmission([]byte("held"), nil, false)
			r.send(t, s)
			id, err := r.conf.Await(canceled, r.in, nil, s)
			return id, err, s
		}, context.Canceled.Error(), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := &sendRig{stop: make(chan struct{})}
			r.p, r.in = valveProcess(t, &r.conf), newInbox(4, r.stop)
			r.coal = newCoalescer(time.Hour, 16, 1<<20, r.in, nil, nil)
			id, err, abandoned := tc.send(t, r)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("err = %v, want a confirm", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("err = %v, want %q", err, tc.wantErr)
			}
			if got := id != (mid.MID{}); got != tc.wantID {
				t.Errorf("MID %v returned, want one: %v", id, tc.wantID)
			}
			if got := r.conf.Waiting(); got != 0 {
				t.Errorf("%d waiters left behind", got)
			}
			if got := r.coal.outstanding.Load(); got != 0 {
				t.Errorf("%d Sends still counted outstanding", got)
			}
			r.coal.Add(newSubmission([]byte("next"), nil, false))
			if r.coal.Pending() != 0 {
				t.Error("a following lone Send waits in its window: the session never looks quiet again")
			}
			r.conf.Leave(core.Suicide) // signals every waiter still registered
			if abandoned != nil && len(abandoned.done) != 0 {
				t.Errorf("the abandoned submission was signalled after its Send returned")
			}
			for i := 0; i < 4; i++ {
				s := newSubmission(nil, nil, false)
				if len(s.done) != 0 || s.next != nil || s.id != (mid.MID{}) || s.err != nil || !s.born.IsZero() || s.coal != nil {
					t.Fatalf("pooled Submission carries state: %d signals, id %v, err %v, born %v, next %v, coalescer %p",
						len(s.done), s.id, s.err, s.born, s.next, s.coal)
				}
			}
		})
	}
}

// sendRig is one session's confirm half and coalescer over a valveProcess,
// with the test playing its loop: the inbox is drained only by run, and
// closing stop is Member.Stop.
type sendRig struct {
	conf confirms
	p    *core.Process
	in   *inbox
	coal *coalescer
	stop chan struct{}
}

// send hands s to the coalescer as Send does — alone on a quiet rig, so its
// window is posted at once — and runs that window.
func (r *sendRig) send(t *testing.T, s *submission) {
	t.Helper()
	r.coal.Add(s)
	r.run(t)
}

// run plays the loop for one posted window: it submits the window's chain.
func (r *sendRig) run(t *testing.T) {
	t.Helper()
	select {
	case e := <-r.in.c:
		r.conf.Submit(r.p, e.sub, nil)
	default:
		t.Fatal("no window reached the loop")
	}
}

// closeValve confirms one message, which closes the valve: the next
// submission stays queued.
func (r *sendRig) closeValve(t *testing.T) {
	t.Helper()
	s := newSubmission([]byte("closes the valve"), nil, false)
	r.send(t, s)
	if _, err := r.conf.Await(context.Background(), r.in, nil, s); err != nil {
		t.Fatal(err)
	}
}
