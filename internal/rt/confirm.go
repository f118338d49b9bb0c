package rt

import (
	"context"
	"fmt"
	"sync"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// Confirms is the user-facing half of one hosted protocol entity, written
// once for all three runtimes (Node, UDPNode, a topics session): the confirm
// waiters of in-flight Sends, the leave record, and the submit step that
// ends by taking the subrun's send opportunity. The zero value is ready.
type Confirms struct {
	mu       sync.Mutex
	waiters  map[mid.MID]chan struct{}
	leftWith *core.LeaveReason
}

// Submit runs submissions on the loop goroutine that owns p: each enters the
// protocol and has its confirm waiter registered, and only then — waiters in
// place, the whole coalesced batch queued — is the subrun's send opportunity
// taken if it is still unspent (core.Process.Flush). Flushing any earlier
// would process a message before its waiter exists, and split a coalescer
// window's worth over several frames.
func (c *Confirms) Submit(p *core.Process, o *NodeObs, batch ...*Submission) {
	for _, s := range batch {
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
		s.Res <- SubResult{id, err}
	}
	if p.Flush() {
		o.EagerBroadcast()
	}
}

// Await blocks a Send until its submission was accepted and then processed
// locally (the Confirm, whose Rq→Conf latency o records), ctx ends, or stop
// closes (answered with stopped). A Send abandoned while its message is
// still in flight removes its own waiter entry, so it cannot leak; a member
// that leaves releases its waiters, and their Sends fail.
func (c *Confirms) Await(ctx context.Context, stop <-chan struct{}, stopped error, o *NodeObs, s *Submission) (mid.MID, error) {
	var r SubResult
	select {
	case r = <-s.Res:
	case <-stop:
		return mid.MID{}, stopped
	case <-ctx.Done():
		return mid.MID{}, ctx.Err()
	}
	if r.Err != nil {
		return mid.MID{}, r.Err
	}
	select {
	case <-s.Confirm:
	case <-stop:
		c.unwait(r.ID, s.Confirm)
		return r.ID, stopped
	case <-ctx.Done():
		c.unwait(r.ID, s.Confirm)
		return r.ID, ctx.Err()
	}
	if _, left := c.Left(); left {
		return r.ID, fmt.Errorf("rt: member %d left the group", r.ID.Proc)
	}
	o.ObserveConfirm(s.born)
	return r.ID, nil
}

// unwait removes a registered waiter, but only if it is still the registered
// one, so an abandoned Send never removes a successor's.
func (c *Confirms) unwait(id mid.MID, ch chan struct{}) {
	c.mu.Lock()
	if c.waiters[id] == ch {
		delete(c.waiters, id)
	}
	c.mu.Unlock()
}

// Processed confirms the Send waiting on id, if any: the OnProcess hook.
func (c *Confirms) Processed(id mid.MID) {
	c.mu.Lock()
	if ch, ok := c.waiters[id]; ok {
		close(ch)
		delete(c.waiters, id)
	}
	c.mu.Unlock()
}

// Leave records why the member halted and releases every waiter: the
// OnLeave hook.
func (c *Confirms) Leave(r core.LeaveReason) {
	c.mu.Lock()
	c.leftWith = &r
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = nil
	c.mu.Unlock()
}

// rejoined clears the leave record once a fresh incarnation has replaced the
// halted one (Cluster.Restart).
func (c *Confirms) rejoined() {
	c.mu.Lock()
	c.leftWith = nil
	c.mu.Unlock()
}

// Left reports whether and why the member halted itself. Safe from any
// goroutine.
func (c *Confirms) Left() (core.LeaveReason, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leftWith == nil {
		return 0, false
	}
	return *c.leftWith, true
}

// Waiting reports how many Sends are registered and unconfirmed. For tests
// and introspection.
func (c *Confirms) Waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
