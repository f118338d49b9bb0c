package rt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// Submission is one user Send waiting to enter the protocol through a node
// loop goroutine. Exported so the multi-group runtime (internal/topics) can
// reuse the coalescing sender; user code goes through Node.Send and friends,
// never through this directly.
//
// Life cycle. A Send takes a Submission from the pool (NewSubmission), hands
// it to the loop — alone, or chained into a coalescer window — and waits in
// Confirms.Await for two signals: the submit outcome on Res, then the local
// processing on Confirm. Both channels have capacity one and are signalled by
// a send, never closed, so they can serve the next Send. The rendezvous goes
// back to the pool at exactly one point: Await, after it has consumed BOTH
// signals — only then is it certain that the loop holds no reference and no
// signal is still in flight. A Send abandoned earlier (context, shutdown)
// leaves its Submission to the garbage collector: the loop may still be
// about to answer it, and a recycled rendezvous must never see a stale Res
// or Confirm.
type Submission struct {
	Payload []byte
	Deps    mid.DepList
	Causal  bool
	Res     chan SubResult // receives the submit outcome (buffered, cap 1)
	Confirm chan struct{}  // signalled (cap 1) when the message is processed locally, or the member leaves

	next *Submission // the rest of a coalescer window; cut before Res is answered
	born time.Time   // the Rq instant, for the confirm-latency histogram
}

var submissions = sync.Pool{New: func() any {
	return &Submission{Res: make(chan SubResult, 1), Confirm: make(chan struct{}, 1)}
}}

// NewSubmission packages one user Send for the loop goroutine, reusing a
// rendezvous that a completed Send gave back.
func NewSubmission(payload []byte, deps mid.DepList, causal bool) *Submission {
	s := submissions.Get().(*Submission)
	s.Payload, s.Deps, s.Causal, s.born = payload, deps, causal, time.Now()
	return s
}

// recycle gives a fully consumed rendezvous back for the next Send. The
// caller's references go with it, so the pool pins no payload.
func (s *Submission) recycle() {
	s.Payload, s.Deps, s.next = nil, nil, nil
	submissions.Put(s)
}

// cut detaches s from its chain and returns the rest. A loop calls it before
// answering s.Res: from that answer on, s belongs to its Send again.
func (s *Submission) cut() *Submission {
	rest := s.next
	s.next = nil
	return rest
}

// failAll answers every submission of a chain that will never run.
func failAll(head *Submission, err error) {
	for s := head; s != nil; {
		rest := s.cut()
		s.Res <- SubResult{Err: err}
		s = rest
	}
}

// SubResult is the outcome of running one Submission inside the loop.
type SubResult struct {
	ID  mid.MID
	Err error
}

// ErrCoalescerStopped answers submissions caught pending in the coalescer
// when its runtime shuts down.
var ErrCoalescerStopped = fmt.Errorf("rt: node stopped with submission unsent")

// wireCost is the submission's encoded body size on the wire — mid(8) +
// depCount(2) + deps(8 each) + payloadLen(2) + payload. SubmitCausal
// labels are computed later inside the node goroutine, so for causal
// sends this is a floor, which only makes the coalescer flush earlier.
func (s *Submission) wireCost() int {
	return 12 + 8*len(s.Deps) + len(s.Payload)
}

// Coalescer batches user submissions: Sends arriving within BatchWindow
// (or until the count/byte budget fills first) are handed to the node
// goroutine as ONE inbox event, so the protocol's outbox drains them as
// DataBatch frames at one send opportunity — at once when the subrun's is
// still unspent, else at the next subrun's opening — instead of dribbling
// one Data per subrun. Confirm semantics are untouched — every Send still
// blocks until its own message is processed locally. A window is a chain
// through the submissions themselves and its timer is re-armed, not
// re-made, so coalescing allocates nothing per Send or per window.
type Coalescer struct {
	window   time.Duration
	maxCount int
	maxBytes int

	// A window's chain goes to the loop behind in as one EvSubmit event for
	// to. observe records flush sizes (may be nil).
	in      *Inbox
	to      Host
	observe func(batch int)

	mu         sync.Mutex
	head, tail *Submission // the open window, in arrival order
	count      int
	bytes      int
	timer      *time.Timer // made by the first window, re-armed by the rest
	stopped    bool
}

// NewCoalescer builds a coalescing sender for the entity to hosted by the
// loop behind in; observe (optional) receives the size of every flush.
func NewCoalescer(window time.Duration, maxCount, maxBytes int, in *Inbox, to Host, observe func(int)) *Coalescer {
	if maxCount <= 1 {
		maxCount = core.DefaultBatchMax
	}
	if maxBytes <= 0 {
		maxBytes = core.DefaultBatchBytes
	}
	return &Coalescer{
		window:   window,
		maxCount: maxCount,
		maxBytes: maxBytes,
		in:       in,
		to:       to,
		observe:  observe,
	}
}

// Add queues one submission. It returns once the submission is part of a
// flushed or pending batch; the caller then waits on s.Res and s.Confirm
// under its own context. After Stop, submissions fail immediately on Res.
func (c *Coalescer) Add(s *Submission) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		s.Res <- SubResult{Err: ErrCoalescerStopped}
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
	var head *Submission
	var n int
	if c.count >= c.maxCount || c.bytes >= c.maxBytes {
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

// Stop fails every submission still pending inside an open batch window, so
// no Send is left waiting on a confirm that can never come, and makes any
// later Add fail the same way. Nil-safe; idempotent. The runtimes call it
// on shutdown after closing their stop channels.
func (c *Coalescer) Stop() {
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
func (c *Coalescer) Pending() int {
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
func (c *Coalescer) take() (head *Submission, n int) {
	head, n = c.head, c.count
	c.head, c.tail, c.count, c.bytes = nil, nil, 0, 0
	if c.timer != nil {
		c.timer.Stop()
	}
	return head, n
}

func (c *Coalescer) fire() {
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
func (c *Coalescer) flush(head *Submission, n int) {
	if c.observe != nil {
		c.observe(n)
	}
	if err := c.in.Put(context.Background(), Event{Kind: EvSubmit, To: c.to, Sub: head}); err != nil {
		failAll(head, err)
	}
}
