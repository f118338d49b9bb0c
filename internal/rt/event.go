package rt

import (
	"context"
	"net/netip"
	"sync"

	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// eventKind says what an event asks of the loop goroutine that receives it.
type eventKind uint8

const (
	// evCall runs call. It is for the rare commands (Snapshot, Status,
	// Restart) and the fault-injection slow paths, which can afford the
	// closure; nothing that happens per tick, datagram or Send uses it.
	evCall eventKind = iota
	// evTick opens round round on to.
	evTick
	// evRecv hands to the decoded PDU received from member src.
	evRecv
	// evSubmit runs on to the submissions chained from sub.
	evSubmit
	// evFrame hands to's member the still-encoded datagram frame: the
	// in-process link validates and decodes on the receiver's loop, as a
	// socket's reader would.
	evFrame
)

// event is one unit of work in a loop goroutine's inbox: a typed record
// instead of a closure, so a tick, a datagram or a Send captures nothing. The
// fields a kind does not name stay zero. Inboxes carry *event records from
// their own free list, which keeps an inbox slot one word wide — InboxDepth
// slots of the whole struct would make every member's set-up allocate a
// quarter of a megabyte more — and run gives the record back, so the steady
// state allocates none. Everything an event points to is owned by the
// receiving loop from the moment the send succeeds.
type event struct {
	kind  eventKind
	src   mid.ProcID  // evRecv: the sending member
	round int         // evTick
	to    *session    // every kind but evCall
	pdu   wire.PDU    // evRecv
	frame *sharedBuf  // evFrame
	sub   *submission // evSubmit: head of the chain
	call  func()      // evCall
}

// eventListDepth bounds an inbox's parked event records: a round puts a tick,
// n-1 datagrams and a few submissions per hosted group in flight, and a list
// that runs dry only costs the allocation it would have saved.
const eventListDepth = 256

// inbox is a loop goroutine's event queue together with the stop signal the
// loop dies by, and the loop's two leaky free lists. Neither is a sync.Pool,
// for one reason: a record is taken by whoever feeds the loop — a Send's
// goroutine, the reader, the clock, a peer's loop — and given back by the
// loop, and a Pool parks what the loop puts in its own P's private slot,
// where a taker on another P never finds it.
type inbox struct {
	c chan *event
	// free is the list of decoded control records: whoever decodes a
	// datagram for this loop takes the record from it (free.Unmarshal), and
	// the loop hands it back after recv — the one recycle point (DESIGN.md §7).
	free *wire.FreeList
	stop <-chan struct{}

	// parked holds the event records run gave back, newest last. A stack
	// under a lock rather than a channel like free: it grows with the queue
	// it serves, so an idle member's set-up pays nothing for it.
	mu     sync.Mutex
	parked []*event
}

// newInbox returns an inbox of the given depth for a loop that ends when stop
// closes.
func newInbox(depth int, stop <-chan struct{}) *inbox {
	return &inbox{c: make(chan *event, depth), free: wire.NewFreeList(), stop: stop}
}

// loop runs events until stop closes, and sends what they shipped once the
// events queued behind its first frame have run, or when the inbox runs dry
// before it blocks (outbox). While events are queued it takes them without
// a select over the stop signal too.
func (sh *shard) loop(m *Member) {
	for {
		var e *event
		select {
		case e = <-sh.c:
		default:
			if len(sh.out.peers) > 0 {
				sh.flush(m)
			}
			select {
			case <-sh.stop:
				return
			case e = <-sh.c:
			}
		}
		sh.run(e)
		if o := &sh.out; len(o.peers) > 0 {
			if o.left == 0 {
				sh.flush(m)
			} else {
				o.left--
			}
		}
		select {
		case <-sh.stop:
			return
		default:
		}
	}
}

// record returns a parked (or new) record holding e, for sending into the
// inbox. A record the inbox then refuses (full, shutting down) is simply
// dropped for the garbage collector; only run recycles.
func (in *inbox) record(e event) *event {
	var p *event
	in.mu.Lock()
	if n := len(in.parked); n > 0 {
		p, in.parked = in.parked[n-1], in.parked[:n-1]
	}
	in.mu.Unlock()
	if p == nil {
		p = new(event)
	}
	*p = e
	return p
}

// offer queues e unless the inbox is full — datagram semantics: the caller
// counts the drop. It reports whether e was accepted.
func (in *inbox) offer(e event) bool {
	select {
	case in.c <- in.record(e):
		return true
	default:
		return false
	}
}

// put queues e, blocking while the inbox is full — user commands and a
// lockstep clock's ticks are not datagrams and must not be lost. It fails
// only when the loop stops or ctx ends first.
func (in *inbox) put(ctx context.Context, e event) error {
	select {
	case in.c <- in.record(e):
		return nil
	case <-in.stop:
		return errStopped
	case <-ctx.Done():
		return ctx.Err()
	}
}

// call runs fn on the loop goroutine and waits for it to return.
func (in *inbox) call(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	if err := in.put(ctx, event{call: func() { fn(); close(done) }}); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-in.stop:
		return errStopped
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run performs the event and recycles its record, and with it a control PDU
// the event carried: neither may be used afterwards. An event for a session
// ends by letting the session close its open window (drainWindow) when it
// coalesces, and by publishing its process's counts and gauges when it
// keeps metrics. Loop goroutine only.
func (in *inbox) run(e *event) {
	switch e.kind {
	case evCall:
		e.call()
	case evTick:
		e.to.tick(e.round)
	case evRecv:
		e.to.recv(e.src, e.pdu)
		in.free.Put(e.pdu)
	case evSubmit:
		e.to.submit(e.sub)
	case evFrame:
		e.to.m.ingest(e.frame.buf, netip.AddrPort{}, e.to.shard)
		e.frame.release()
	}
	if s := e.to; s != nil {
		if s.coal != nil {
			s.drainWindow()
		}
		s.obs.publish(s.proc, len(in.c))
	}
	*e = event{}
	in.mu.Lock()
	if len(in.parked) < eventListDepth {
		in.parked = append(in.parked, e)
	}
	in.mu.Unlock()
}
