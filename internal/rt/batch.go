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

// submission is one user Send waiting to enter the protocol through a shard
// loop goroutine.
//
// Life cycle. A Send takes a submission from the pool (newSubmission), hands
// it to the loop — alone, or chained into a coalescer window — and waits in
// confirms.Await for one signal on done, sent exactly once: when the submit
// is refused, the message is processed locally, the member leaves, or the
// coalescer stops; a successful submit signals nothing. done has capacity one
// and is signalled by a send, never closed, so it can serve the next Send.
// The rendezvous goes back to the pool at exactly one point: Await, after it
// has consumed that signal — only then is it certain that the loop holds no
// reference and no signal is still in flight. A Send abandoned earlier
// (context, shutdown) leaves its submission to the garbage collector: the
// loop may still be about to signal it, and a recycled rendezvous must never
// see a stale signal.
type submission struct {
	Payload []byte
	Deps    mid.DepList
	Causal  bool
	done    chan struct{} // signalled (cap 1) exactly once, when the Send's outcome is known

	id   mid.MID     // the submitted message, written by the loop under confirms.mu
	err  error       // why the submit was refused, written before done is signalled
	next *submission // the rest of a coalescer window; cut before s is submitted
	born time.Time   // the Rq instant, for the confirm-latency histogram; zero when unrecorded
	coal *coalescer  // the coalescer that counts s outstanding until Await returns; nil without one
}

var submissions = sync.Pool{New: func() any {
	return &submission{done: make(chan struct{}, 1)}
}}

// newSubmission packages one user Send for the loop goroutine, reusing a
// rendezvous that a completed Send gave back.
func newSubmission(payload []byte, deps mid.DepList, causal bool) *submission {
	s := submissions.Get().(*submission)
	s.Payload, s.Deps, s.Causal = payload, deps, causal
	return s
}

// recycle gives a fully consumed rendezvous back for the next Send. The
// caller's references go with it, so the pool pins no payload.
func (s *submission) recycle() {
	s.Payload, s.Deps, s.next, s.coal = nil, nil, nil, nil
	s.id, s.err, s.born = mid.MID{}, nil, time.Time{}
	submissions.Put(s)
}

// cut detaches s from its chain and returns the rest. A loop calls it before
// submitting or failing s: from then on, s belongs to its Send again.
func (s *submission) cut() *submission {
	rest := s.next
	s.next = nil
	return rest
}

// fail signals s's one outcome: a submit that will never run.
func (s *submission) fail(err error) {
	s.err = err
	signal(s.done)
}

// failAll fails every submission of a chain that will never run.
func failAll(head *submission, err error) {
	for s := head; s != nil; {
		rest := s.cut()
		s.fail(err)
		s = rest
	}
}

// ErrCoalescerStopped answers submissions caught pending in the coalescer
// when its runtime shuts down.
var ErrCoalescerStopped = fmt.Errorf("rt: node stopped with submission unsent")

// wireCost is the submission's encoded body size on the wire — mid(8) +
// depCount(2) + deps(8 each) + payloadLen(2) + payload. SubmitCausal
// labels are computed later inside the node goroutine, so for causal
// sends this is a floor, which only makes the coalescer flush earlier.
func (s *submission) wireCost() int {
	return 12 + 8*len(s.Deps) + len(s.Payload)
}

// coalescer batches user submissions: a window of Sends enters the protocol
// as one submission step, so the protocol's outbox drains it as DataBatch
// frames in one flush — at once as far as the subrun's BatchMax budget has
// room, the rest at the next subrun's opening — instead of dribbling one
// Data per subrun. A window closes at the earliest of four instants: it is
// full (the count or byte budget); its first Send is the session's only
// outstanding one, so nothing is in flight that could join it (Add posts it
// at once — Nagle's rule); the loop that hosts the entity has just run an
// event for it and the protocol has nothing queued (drain, called by that
// loop, which submits the window inline); or BatchWindow has passed since it
// opened (the timer, which hands it to the loop as one inbox event). Under
// load the loop's close comes first, so windows follow the loop's pace, and
// BatchWindow bounds only a Send that joined while an earlier one was still
// returning from Await, or a window held behind a queued backlog. Confirm
// semantics are untouched — every Send still blocks until its own message is
// processed locally. A window is a chain through the submissions themselves
// and its timer is re-armed, not re-made, so coalescing allocates nothing per
// Send or per window.
type coalescer struct {
	window   time.Duration
	maxCount int
	maxBytes int

	// A window's chain goes to the loop behind in as one evSubmit event for
	// to. observe records flush sizes (may be nil).
	in      *inbox
	to      *session
	observe func(batch int)

	mu         sync.Mutex
	head, tail *submission // the open window, in arrival order
	count      int
	bytes      int
	timer      *time.Timer // made by the first window, re-armed by the rest
	stopped    bool

	// outstanding counts the Sends between Add and the return of their
	// Await (settle), on every path; outside mu, so that settling never
	// waits on a window.
	outstanding atomic.Int64
}

// newCoalescer builds a coalescing sender for the entity to hosted by the
// loop behind in; observe (optional) receives the size of every flush.
func newCoalescer(window time.Duration, maxCount, maxBytes int, in *inbox, to *session, observe func(int)) *coalescer {
	if maxCount <= 1 {
		maxCount = core.DefaultBatchMax
	}
	return &coalescer{
		window:   window,
		maxCount: maxCount,
		maxBytes: maxBytes,
		in:       in,
		to:       to,
		observe:  observe,
	}
}

// Add queues one submission and counts it outstanding until its Await
// returns. It returns once the submission is part of a flushed or pending
// batch; the caller then waits on s.done under its own context. After Stop,
// submissions fail immediately. A submission that opens a window while no
// other Send is outstanding posts it at once: nothing in flight could join
// it. Otherwise the window waits for the loop's next event, a full budget or
// the timer, so that concurrent Sends share it.
func (c *coalescer) Add(s *submission) {
	s.coal = c
	c.outstanding.Add(1)
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		s.fail(ErrCoalescerStopped)
		return
	}
	if c.tail == nil {
		c.head = s
	} else {
		c.tail.next = s
	}
	c.tail = s
	c.count++
	c.bytes += s.wireCost()
	var head *submission
	var n int
	if c.count >= c.maxCount || c.bytes >= c.maxBytes || c.count == 1 && c.outstanding.Load() == 1 {
		head, n = c.take()
	} else if c.count == 1 {
		if c.timer == nil {
			c.timer = time.AfterFunc(c.window, c.fire)
		} else {
			c.timer.Reset(c.window)
		}
	}
	c.mu.Unlock()
	if head != nil {
		c.flush(head, n)
	}
}

// settle ends the count Add began for one Send: Await calls it on every
// return. Nil-safe, for a Send that did not coalesce.
func (c *coalescer) settle() {
	if c != nil {
		c.outstanding.Add(-1)
	}
}

// Stop fails every submission still pending inside an open batch window, so
// no Send is left waiting on a confirm that can never come, and makes any
// later Add fail the same way. Nil-safe; idempotent. A member calls it
// on shutdown after closing its stop channel.
func (c *coalescer) Stop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stopped = true
	head, _ := c.take()
	c.mu.Unlock()
	failAll(head, ErrCoalescerStopped)
}

// Pending reports how many submissions sit inside the open batch window.
// Nil-safe; for tests and introspection, not the hot path.
func (c *coalescer) Pending() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// take must run under mu: it claims the open window and disarms its timer.
// (A timer that has already fired finds the window empty, or at worst
// flushes the next one early.)
func (c *coalescer) take() (head *submission, n int) {
	head, n = c.head, c.count
	c.head, c.tail, c.count, c.bytes = nil, nil, 0, 0
	if c.timer != nil {
		c.timer.Stop()
	}
	return head, n
}

// drain claims the open window for the loop goroutine hosting the
// coalescer's entity, which submits it inline; nil when no window is open.
// The loop calls it only right after running an event for the entity while
// the protocol has nothing queued.
func (c *coalescer) drain() *submission {
	c.mu.Lock()
	var head *submission
	var n int
	if c.head != nil {
		head, n = c.take()
	}
	c.mu.Unlock()
	if head != nil && c.observe != nil {
		c.observe(n)
	}
	return head
}

func (c *coalescer) fire() {
	c.mu.Lock()
	head, n := c.take()
	c.mu.Unlock()
	if head != nil {
		c.flush(head, n)
	}
}

// flush hands the whole window to the node goroutine as one inbox event.
// On shutdown every waiter is answered with the enqueue error instead of
// being left to hang.
func (c *coalescer) flush(head *submission, n int) {
	if c.observe != nil {
		c.observe(n)
	}
	if err := c.in.put(context.Background(), event{kind: evSubmit, to: c.to, sub: head}); err != nil {
		failAll(head, err)
	}
}
