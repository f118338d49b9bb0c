// Package sim provides the deterministic discrete-event engine underneath
// the protocol simulations.
//
// The paper evaluates everything in units of round-trip delay (rtd): a
// subrun lasts one rtd and consists of two rounds (Section 4). The engine
// therefore exposes virtual time as integer ticks with fixed conversions to
// rounds, subruns and rtds. Events scheduled for the same tick fire in
// scheduling order, so a run is a pure function of its inputs and seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is virtual time in ticks.
type Time int64

// Tick conversions. One subrun = 2 rounds = 1 rtd, as in the paper.
const (
	TicksPerRound  Time = 500
	RoundsPerRTD        = 2
	TicksPerRTD         = TicksPerRound * RoundsPerRTD
	TicksPerSubrun      = TicksPerRTD
)

// Tick is the elapsed time one tick stands for: a round is 500 µs. The
// conversion lets the simulator consult the failure injectors of
// internal/faultrt, which read elapsed time; it is exact and monotone, so
// every time comparison an injector makes answers as it would on ticks.
const Tick = time.Microsecond

// Duration converts virtual time to elapsed time since the run started.
func (t Time) Duration() time.Duration { return time.Duration(t) * Tick }

// RTD converts ticks to (fractional) round-trip delays.
func (t Time) RTD() float64 { return float64(t) / float64(TicksPerRTD) }

// RoundOf returns the round index containing tick t.
func RoundOf(t Time) int { return int(t / TicksPerRound) }

// SubrunOf returns the subrun index containing tick t.
func SubrunOf(t Time) int { return int(t / TicksPerSubrun) }

// StartOfRound returns the first tick of round r.
func StartOfRound(r int) Time { return Time(r) * TicksPerRound }

// StartOfSubrun returns the first tick of subrun s.
func StartOfSubrun(s int) Time { return Time(s) * TicksPerSubrun }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
}

// Engine is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: simulations are single-goroutine by design so that runs
// are reproducible.
type Engine struct {
	now       Time
	seq       uint64
	events    eventHeap
	rng       *rand.Rand
	processed uint64
}

// NewEngine returns an engine at time zero with a seeded RNG. The same seed
// always yields the same run.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source. All randomness in a
// simulation must come from here.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// At schedules fn to run at tick t. Scheduling into the past is a
// programming error and panics: silently reordering time would corrupt the
// simulation in ways that are very hard to debug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d ticks from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Step runs the next pending event, advancing time to it. It reports
// whether an event was run.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

// RunUntil runs events until the queue is empty or the next event is
// strictly after the deadline. Time ends at min(deadline, last event time).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline && len(e.events) == 0 {
		e.now = deadline
	}
}

// Run drains the event queue completely.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of scheduled events not yet run.
func (e *Engine) Pending() int { return len(e.events) }

// Processed returns the number of events run so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Ticker drives a callback at the start of every round, which is how the
// round-synchronous protocol entities are clocked. Stop it by returning
// false from the callback.
type Ticker struct {
	eng   *Engine
	round int
	fn    func(round int) bool
}

// NewTicker registers fn to run at the start of every round, beginning with
// round 0 (tick 0). fn returns false to stop ticking.
func NewTicker(eng *Engine, fn func(round int) bool) *Ticker {
	t := &Ticker{eng: eng, fn: fn}
	eng.At(0, t.tick)
	return t
}

func (t *Ticker) tick() {
	if !t.fn(t.round) {
		return
	}
	t.round++
	t.eng.At(StartOfRound(t.round), t.tick)
}
