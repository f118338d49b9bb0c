package rt

import (
	"context"
	"sync"

	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// EventKind says what an Event asks of the loop goroutine that receives it.
type EventKind uint8

const (
	// EvCall runs Call. It is for the rare commands (Snapshot, Status,
	// Restart) and the fault-injection slow paths, which can afford the
	// closure; nothing that happens per tick, datagram or Send uses it.
	EvCall EventKind = iota
	// EvTick opens round Round on To.
	EvTick
	// EvRecv hands To the decoded PDU received from member Src.
	EvRecv
	// EvSubmit runs on To the submissions chained from Sub.
	EvSubmit
	// evFrame hands a mesh Node the still-encoded datagram Frame from Src:
	// the in-process mesh decodes on the receiver's loop, as a socket would.
	evFrame
)

// Host is one hosted protocol entity as its loop goroutine drives it: a
// Node, a UDPNode, or one group's session of internal/topics. Every method
// runs on the loop goroutine that owns the entity, and only there.
type Host interface {
	// Tick opens a protocol round.
	Tick(round int)
	// Recv delivers one decoded PDU. A control PDU is only lent: the loop
	// recycles its record when Recv returns (see Inbox.Free).
	Recv(src mid.ProcID, pdu wire.PDU)
	// Submit runs a chain of user submissions (see Submission).
	Submit(head *Submission)
}

// Event is one unit of work in a loop goroutine's inbox: a typed record
// instead of a closure, so a tick, a datagram or a Send captures nothing. The
// fields a kind does not name stay zero. Inboxes carry pooled *Event records
// (NewEvent), which keeps an inbox slot one word wide — InboxDepth slots of
// the whole struct would make every node's set-up allocate a quarter of a
// megabyte more — and Run gives the record back, so the steady state
// allocates none. Everything an Event points to is owned by the receiving
// loop from the moment the send succeeds.
type Event struct {
	Kind  EventKind
	Src   mid.ProcID  // EvRecv, evFrame: the sending member
	Round int         // EvTick
	To    Host        // every kind but EvCall
	PDU   wire.PDU    // EvRecv
	Frame *SharedBuf  // evFrame
	Sub   *Submission // EvSubmit: head of the chain
	Call  func()      // EvCall
}

// Inbox is a loop goroutine's event queue together with the stop signal the
// loop dies by — the mechanics every hosted runtime shares, written once.
type Inbox struct {
	C chan *Event
	// Free is the loop's free list of decoded control records: whoever decodes
	// a datagram for this loop takes the record from it (Free.Unmarshal), and
	// Run hands it back after Recv — the one recycle point (DESIGN.md §7).
	Free    *wire.FreeList
	stop    <-chan struct{}
	stopped error // what Put and Call answer once stop has closed
}

// NewInbox returns an inbox of the given depth for a loop that ends when stop
// closes.
func NewInbox(depth int, stop <-chan struct{}, stopped error) Inbox {
	return Inbox{C: make(chan *Event, depth), Free: wire.NewFreeList(), stop: stop, stopped: stopped}
}

// Loop runs events until stop closes.
func (in *Inbox) Loop() {
	for {
		select {
		case <-in.stop:
			return
		case e := <-in.C:
			in.Run(e)
		}
	}
}

// Offer queues e unless the inbox is full — datagram semantics: the caller
// counts the drop. It reports whether e was accepted.
func (in *Inbox) Offer(e Event) bool {
	select {
	case in.C <- NewEvent(e):
		return true
	default:
		return false
	}
}

// Put queues e, blocking while the inbox is full — user commands are not
// datagrams and must not be lost. It fails only when the loop stops or ctx
// ends first.
func (in *Inbox) Put(ctx context.Context, e Event) error {
	select {
	case in.C <- NewEvent(e):
		return nil
	case <-in.stop:
		return in.stopped
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Call runs fn on the loop goroutine and waits for it to return.
func (in *Inbox) Call(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	if err := in.Put(ctx, Event{Call: func() { fn(); close(done) }}); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-in.stop:
		return in.stopped
	case <-ctx.Done():
		return ctx.Err()
	}
}

var events = sync.Pool{New: func() any { return new(Event) }}

// NewEvent returns a pooled record holding e, for sending into an inbox. A
// record the inbox refuses (full, shutting down) is simply dropped for the
// garbage collector; only Inbox.Run recycles.
func NewEvent(e Event) *Event {
	p := events.Get().(*Event)
	*p = e
	return p
}

// Run performs the event and recycles its record, and with it a control PDU
// the event carried: neither may be used afterwards. Loop goroutine only.
func (in *Inbox) Run(e *Event) {
	switch e.Kind {
	case EvCall:
		e.Call()
	case EvTick:
		e.To.Tick(e.Round)
	case EvRecv:
		e.To.Recv(e.Src, e.PDU)
		in.Free.Put(e.PDU)
	case EvSubmit:
		e.To.Submit(e.Sub)
	case evFrame:
		e.To.(*nodeHost).recvFrame(e.Src, e.Frame)
	}
	*e = Event{}
	events.Put(e)
}
