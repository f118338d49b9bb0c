package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one timestamped trace entry.
type Event struct {
	At  time.Time
	Msg string
}

// EventLog is a bounded, concurrency-safe ring of trace events. It makes
// by-design omissions (inbox overflow, malformed datagrams) verifiable
// from the log instead of silently assumed recovered.
type EventLog struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	full    bool
	total   int64
	dropped int64 // events overwritten by ring wraparound
}

// NewEventLog returns a log keeping the most recent cap events
// (cap ≤ 0 means 256).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &EventLog{ring: make([]Event, capacity)}
}

// Addf appends a formatted event, evicting the oldest when full.
func (l *EventLog) Addf(format string, args ...any) {
	e := Event{At: time.Now(), Msg: fmt.Sprintf(format, args...)}
	l.mu.Lock()
	if l.full {
		l.dropped++
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.next == 0 {
		l.full = true
	}
	l.total++
	l.mu.Unlock()
}

// Total returns how many events were ever added.
func (l *EventLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped returns how many events were overwritten by ring wraparound.
// Total − Dropped is always the number of retained events.
func (l *EventLog) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]Event(nil), l.ring[:l.next]...)
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Write renders the retained events, oldest first.
func (l *EventLog) Write(w io.Writer) {
	for _, e := range l.Events() {
		fmt.Fprintf(w, "%s %s\n", e.At.Format("15:04:05.000"), e.Msg)
	}
}

// Throttle rate-limits an action (typically logging) to once per period,
// counting what was suppressed in between so nothing is silently lost.
// The zero value with Every unset throttles to once per second.
type Throttle struct {
	// Every is the minimum interval between allowed actions.
	Every time.Duration

	mu         sync.Mutex
	last       time.Time
	suppressed int64
}

// Allow reports whether the action may run now; when it may, it also
// returns how many calls were suppressed since the last allowed one.
func (t *Throttle) Allow() (suppressed int64, ok bool) {
	every := t.Every
	if every == 0 {
		every = time.Second
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.last.IsZero() && now.Sub(t.last) < every {
		t.suppressed++
		return 0, false
	}
	t.last = now
	s := t.suppressed
	t.suppressed = 0
	return s, true
}
