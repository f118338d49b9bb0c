package rt

import (
	"context"
	"fmt"
	"sync"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// confirms is the user-facing half of a session: the confirm waiters of
// in-flight Sends, the leave record, and the submit step that ends by
// spending what is left of the subrun's message budget. The zero value is
// ready.
type confirms struct {
	mu       sync.Mutex
	waiters  map[mid.MID]chan struct{}
	leftWith *core.LeaveReason
}

// Submit runs submissions on the loop goroutine that owns p: each enters the
// protocol and has its confirm waiter registered, and only then — waiters in
// place, the whole coalesced batch queued — does one core.Process.Flush send
// as much of the queue as the subrun's BatchMax budget has left; the rest
// waits for the next subrun, which Advance may open at once. Flushing any
// earlier would process a message before its waiter exists, and split a
// coalescer window's worth over several frames. One flush per event means a
// subrun carries as many eager frames as windows arrive in it, until the
// budget is spent.
func (c *confirms) Submit(p *core.Process, o *nodeObs, head *submission) {
	for s := head; s != nil; {
		rest := s.cut()
		var id mid.MID
		var err error
		if s.Causal {
			id, err = p.SubmitCausal(s.Payload)
		} else {
			id, err = p.Submit(s.Payload, s.Deps)
		}
		if err == nil {
			c.mu.Lock()
			if c.waiters == nil {
				c.waiters = make(map[mid.MID]chan struct{})
			}
			c.waiters[id] = s.Confirm
			c.mu.Unlock()
		}
		s.Res <- subResult{id, err}
		s = rest
	}
	if p.Flush() {
		o.EagerBroadcast()
	}
	p.Advance()
}

// Send is the urcgc-data.Rq/Conf pair: the payload goes to the shard loop
// that hosts to — through its coalescer when the member coalesces — and Send
// waits for its confirm.
func (c *confirms) Send(ctx context.Context, to *session, payload []byte, deps mid.DepList, causal bool) (mid.MID, error) {
	s := newSubmission(payload, deps, causal)
	in := to.shard.inbox
	if to.coal != nil {
		to.coal.Add(s)
	} else if err := in.put(ctx, event{kind: evSubmit, to: to, sub: s}); err != nil {
		return mid.MID{}, err
	}
	return c.Await(ctx, in, to.obs, s)
}

// Await blocks a Send until its submission was accepted and then processed
// locally (the Confirm, whose Rq→Conf latency o records), ctx ends, or the
// loop behind in stops. A Send abandoned while its message is
// still in flight removes its own waiter entry, so it cannot leak; a member
// that leaves releases its waiters, and their Sends fail. Once both of s's
// signals are consumed — and on no other path — s is recycled: the caller
// must not touch it after Await returns.
func (c *confirms) Await(ctx context.Context, in *inbox, o *nodeObs, s *submission) (mid.MID, error) {
	var r subResult
	select {
	case r = <-s.Res:
	case <-in.stop:
		return mid.MID{}, errStopped
	case <-ctx.Done():
		return mid.MID{}, ctx.Err()
	}
	if r.Err != nil {
		return mid.MID{}, r.Err
	}
	select {
	case <-s.Confirm:
	case <-in.stop:
		c.unwait(r.ID, s.Confirm)
		return r.ID, errStopped
	case <-ctx.Done():
		c.unwait(r.ID, s.Confirm)
		return r.ID, ctx.Err()
	}
	born := s.born
	s.recycle()
	if _, left := c.Left(); left {
		return r.ID, fmt.Errorf("rt: member %d left the group", r.ID.Proc)
	}
	o.ObserveConfirm(born)
	return r.ID, nil
}

// unwait removes a registered waiter, but only if it is still the registered
// one, so an abandoned Send never removes a successor's.
func (c *confirms) unwait(id mid.MID, ch chan struct{}) {
	c.mu.Lock()
	if c.waiters[id] == ch {
		delete(c.waiters, id)
	}
	c.mu.Unlock()
}

// Processed confirms the Send waiting on id, if any: the OnProcess hook.
func (c *confirms) Processed(id mid.MID) {
	c.mu.Lock()
	if ch, ok := c.waiters[id]; ok {
		signal(ch)
		delete(c.waiters, id)
	}
	c.mu.Unlock()
}

// Leave records why the member halted and releases every waiter: the
// OnLeave hook.
func (c *confirms) Leave(r core.LeaveReason) {
	c.mu.Lock()
	c.leftWith = &r
	for _, ch := range c.waiters {
		signal(ch)
	}
	c.waiters = nil
	c.mu.Unlock()
}

// signal wakes the one Send waiting on a Confirm channel. A registered
// waiter is signalled exactly once — Processed and Leave drop the entry under
// the lock — so the cap-1 channel always has room; the default arm only keeps
// a broken invariant from ever blocking a loop goroutine.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// rejoined clears the leave record once a fresh incarnation has replaced the
// halted one (Mesh.Restart).
func (c *confirms) rejoined() {
	c.mu.Lock()
	c.leftWith = nil
	c.mu.Unlock()
}

// Left reports whether and why the member halted itself. Safe from any
// goroutine.
func (c *confirms) Left() (core.LeaveReason, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leftWith == nil {
		return 0, false
	}
	return *c.leftWith, true
}

// Waiting reports how many Sends are registered and unconfirmed. For tests
// and introspection.
func (c *confirms) Waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
