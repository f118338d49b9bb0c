package rt

import (
	"sync"
	"sync/atomic"
)

// streamBuffer is the capacity of a group's indication channel: one loop
// event's worth of processed messages — a frame of up to
// core.DefaultBatchMax messages and what it releases from the waiting list,
// several frames over — so a reader that keeps pace never reaches the spill.
const streamBuffer = 256

// stream is one group's urcgc-data.Ind queue: a small channel the reader
// receives from, and a FIFO spill behind it that holds the backlog of a
// reader that falls behind. The two together hold at most depth
// indications; the next is dropped, like a full SAP queue. Memory follows
// what is queued, not depth: the channel is streamBuffer slots, and the
// spill's backing array is dropped each time it drains.
//
// push runs on the session's loop goroutine only. While nothing is
// spilled it sends straight into the channel; once the channel is full it
// appends to the spill and starts a drainer goroutine, which moves the
// spill into the channel in order and leaves when the spill is empty or the
// member stops. At most one drainer runs per stream.
type stream struct {
	ch    chan Indication
	depth int
	stop  <-chan struct{}
	wg    *sync.WaitGroup // the member's: a drainer never outlives Stop

	// spilled is set by push when it starts a drainer and cleared by the
	// drainer, under mu, as it leaves with the spill empty. While it is
	// clear no drainer runs and the spill is empty, so push may send
	// straight into ch without mu.
	spilled atomic.Bool
	mu      sync.Mutex
	spill   []Indication // spill[head] is the next to enter ch
	head    int
}

func newStream(depth int, stop <-chan struct{}, wg *sync.WaitGroup) *stream {
	return &stream{ch: make(chan Indication, min(depth, streamBuffer)), depth: depth, stop: stop, wg: wg}
}

// push queues one indication behind every earlier one, and reports false
// when the stream already holds depth of them. Loop goroutine only.
func (st *stream) push(in Indication) bool {
	if !st.spilled.Load() {
		select {
		case st.ch <- in:
			return true
		default:
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.ch)+len(st.spill)-st.head >= st.depth {
		return false
	}
	if st.head > 0 && len(st.spill) == cap(st.spill) {
		// Reuse the drained front before append grows the array: a spill
		// that never empties must not grow with everything it ever held.
		n := copy(st.spill, st.spill[st.head:])
		clear(st.spill[n:])
		st.spill, st.head = st.spill[:n], 0
	}
	st.spill = append(st.spill, in)
	if !st.spilled.Load() {
		st.spilled.Store(true)
		st.wg.Add(1)
		go st.drain()
	}
	return true
}

// drain moves the spill into the channel, oldest first. The indication in
// transit stays at the spill's head, so it counts against depth until the
// channel has it.
func (st *stream) drain() {
	defer st.wg.Done()
	st.mu.Lock()
	for {
		in := st.spill[st.head]
		st.mu.Unlock()
		select {
		case st.ch <- in:
		case <-st.stop:
			return
		}
		st.mu.Lock()
		st.spill[st.head] = Indication{}
		st.head++
		if st.head == len(st.spill) {
			st.spill, st.head = nil, 0
			st.spilled.Store(false)
			st.mu.Unlock()
			return
		}
	}
}
