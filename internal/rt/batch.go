package rt

import (
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
type Submission struct {
	Payload []byte
	Deps    mid.DepList
	Causal  bool
	Res     chan SubResult // receives the submit outcome (buffered, cap 1)
	Confirm chan struct{}  // closed when the message is processed locally

	born time.Time // the Rq instant, for the confirm-latency histogram
}

// NewSubmission packages one user Send for the loop goroutine.
func NewSubmission(payload []byte, deps mid.DepList, causal bool) *Submission {
	return &Submission{
		Payload: payload,
		Deps:    deps,
		Causal:  causal,
		Res:     make(chan SubResult, 1),
		Confirm: make(chan struct{}),
		born:    time.Now(),
	}
}

// failAll answers every submission of a batch that will never run.
func failAll(batch []*Submission, err error) {
	for _, s := range batch {
		s.Res <- SubResult{Err: err}
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
// blocks until its own message is processed locally.
type Coalescer struct {
	window   time.Duration
	maxCount int
	maxBytes int

	// enqueue hands a closure to the node loop, blocking until accepted;
	// it fails only on shutdown. submit runs a flushed batch inside that
	// loop. observe records flush sizes (may be nil).
	enqueue func(fn func()) error
	submit  func(batch ...*Submission)
	observe func(batch int)

	mu      sync.Mutex
	pending []*Submission
	bytes   int
	timer   *time.Timer
	stopped bool
}

// NewCoalescer builds a coalescing sender. enqueue must hand a closure to
// the loop goroutine that owns submit, blocking until accepted and failing
// only on shutdown; observe (optional) receives the size of every flush.
func NewCoalescer(window time.Duration, maxCount, maxBytes int,
	enqueue func(func()) error, submit func(...*Submission), observe func(int)) *Coalescer {
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
		enqueue:  enqueue,
		submit:   submit,
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
	c.pending = append(c.pending, s)
	c.bytes += s.wireCost()
	var batch []*Submission
	if len(c.pending) >= c.maxCount || c.bytes >= c.maxBytes {
		batch = c.take()
	} else if len(c.pending) == 1 {
		c.timer = time.AfterFunc(c.window, c.fire)
	}
	c.mu.Unlock()
	if batch != nil {
		c.flush(batch)
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
	batch := c.take()
	c.mu.Unlock()
	failAll(batch, ErrCoalescerStopped)
}

// Pending reports how many submissions sit inside the open batch window.
// Nil-safe; for tests and introspection, not the hot path.
func (c *Coalescer) Pending() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// take must run under mu: it claims the pending batch and disarms the
// window timer.
func (c *Coalescer) take() []*Submission {
	batch := c.pending
	c.pending = nil
	c.bytes = 0
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

func (c *Coalescer) fire() {
	c.mu.Lock()
	batch := c.take()
	c.mu.Unlock()
	if len(batch) > 0 {
		c.flush(batch)
	}
}

// flush hands the whole batch to the node goroutine as one inbox event.
// On shutdown every waiter is answered with the enqueue error instead of
// being left to hang.
func (c *Coalescer) flush(batch []*Submission) {
	if c.observe != nil {
		c.observe(len(batch))
	}
	if err := c.enqueue(func() { c.submit(batch...) }); err != nil {
		failAll(batch, err)
	}
}
