package rt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// confirms is the user-facing half of a session: the confirm waiters of
// in-flight Sends, the leave record, and the submit step that ends by
// spending what is left of the subrun's message budget. The zero value is
// ready.
type confirms struct {
	mu       sync.Mutex
	waiters  map[mid.MID]*submission
	leftWith atomic.Pointer[core.LeaveReason]
}

// Submit runs submissions on the loop goroutine that owns p: each enters the
// protocol, is stamped for o's submit→stable latency and has its confirm
// waiter registered, unsignalled (a refused one is failed), and only then —
// waiters in place, the whole coalesced batch queued — does one
// core.Process.Flush send as much of the queue as the subrun's BatchMax
// budget has left; the rest waits for the next subrun, which Advance may open
// at once. Flushing any earlier would process a message before its waiter
// exists, and split a coalescer window's worth over several frames. One flush
// per event means a subrun carries as many eager frames as windows arrive in
// it, until the budget is spent.
func (c *confirms) Submit(p *core.Process, head *submission, o *nodeObs) {
	for s := head; s != nil; {
		rest := s.cut()
		var id mid.MID
		var err error
		if s.Causal {
			id, err = p.SubmitCausal(s.Payload)
		} else {
			id, err = p.Submit(s.Payload, s.Deps)
		}
		if err != nil {
			s.fail(err)
		} else {
			o.Submitted(p, id)
			c.mu.Lock()
			if c.waiters == nil {
				c.waiters = make(map[mid.MID]*submission)
			}
			s.id = id
			c.waiters[id] = s
			c.mu.Unlock()
		}
		s = rest
	}
	p.Flush()
	p.Advance()
}

// Send is the urcgc-data.Rq/Conf pair: the payload goes to the shard loop
// that hosts to — through its coalescer when the member coalesces — and Send
// waits for its confirm.
func (c *confirms) Send(ctx context.Context, to *session, payload []byte, deps mid.DepList, causal bool) (mid.MID, error) {
	s := newSubmission(payload, deps, causal)
	if to.obs != nil {
		s.born = time.Now()
	}
	in := to.shard.inbox
	if to.coal != nil {
		to.coal.Add(s)
	} else if err := in.put(ctx, event{kind: evSubmit, to: to, sub: s}); err != nil {
		return mid.MID{}, err
	}
	return c.Await(ctx, in, to.obs, s)
}

// Await blocks a Send until s's one signal — refused, processed locally (the
// Confirm, whose Rq→Conf latency o records), member left, coalescer stopped —
// or until ctx ends or the loop behind in stops: such an abandoned Send drops
// its own waiter entry, so it cannot leak. Every return settles s with the
// coalescer that counted it outstanding. Once the signal is consumed — and
// on no other path — s is recycled: the caller must not touch it after Await
// returns.
func (c *confirms) Await(ctx context.Context, in *inbox, o *nodeObs, s *submission) (mid.MID, error) {
	defer s.coal.settle()
	select {
	case <-s.done:
	case <-in.stop:
		return c.abandon(s), errStopped
	case <-ctx.Done():
		return c.abandon(s), ctx.Err()
	}
	id, err, born := s.id, s.err, s.born
	s.recycle()
	if err != nil {
		return mid.MID{}, err
	}
	if _, left := c.Left(); left {
		return id, fmt.Errorf("rt: member %d left the group", id.Proc)
	}
	o.ObserveConfirm(born)
	return id, nil
}

// abandon drops the waiter of a Send that gives up, if s is still the one
// registered, and returns its MID: zero when the loop has not submitted it.
func (c *confirms) abandon(s *submission) mid.MID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waiters[s.id] == s {
		delete(c.waiters, s.id)
	}
	return s.id
}

// Processed confirms the Send waiting on id, if any: the OnProcess hook for
// the messages this member sent.
func (c *confirms) Processed(id mid.MID) {
	c.mu.Lock()
	if s, ok := c.waiters[id]; ok {
		signal(s.done)
		delete(c.waiters, id)
	}
	c.mu.Unlock()
}

// Leave records why the member halted and releases every waiter: the
// OnLeave hook.
func (c *confirms) Leave(r core.LeaveReason) {
	c.mu.Lock()
	c.leftWith.Store(&r)
	for _, s := range c.waiters {
		signal(s.done)
	}
	c.waiters = nil
	c.mu.Unlock()
}

// signal wakes the one Send waiting on a done channel. A submission is
// signalled exactly once — failed, or dropped under the lock by Processed or
// Leave — so the cap-1 channel always has room; the default arm only keeps a
// broken invariant from ever blocking a loop goroutine.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// rejoined clears the leave record once a fresh incarnation has replaced the
// halted one (Mesh.Restart).
func (c *confirms) rejoined() { c.leftWith.Store(nil) }

// Left reports whether and why the member halted itself. Safe from any
// goroutine.
func (c *confirms) Left() (core.LeaveReason, bool) {
	if r := c.leftWith.Load(); r != nil {
		return *r, true
	}
	return 0, false
}

// Waiting reports how many Sends are registered and unconfirmed. For tests
// and introspection.
func (c *confirms) Waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
