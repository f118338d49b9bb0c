// Package trace records protocol events as structured logs and audits them
// offline, from the logs alone.
//
// The audit is deliberately independent of the protocol implementation:
// Verify replays what each process actually did into faultrt.Checker, the
// one judge of Definition 3.2, with the causal relation taken from the
// messages' own dependency labels as recorded at generation. Tests attach a
// Recorder to a simulated cluster and then run Verify; a bug anywhere in the
// pipeline (protocol, network, harness) surfaces as a violated invariant.
package trace

import (
	"fmt"
	"strings"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// Kind labels an event.
type Kind uint8

// Event kinds.
const (
	EvGenerate    Kind = iota + 1 // a user message entered the system at Proc
	EvProcess                     // Proc processed Msg
	EvDiscard                     // Proc destroyed Msg by agreement
	EvCrash                       // Proc fail-stopped (injected)
	EvLeave                       // Proc self-excluded
	EvBroadcast                   // Proc's own Msg left the outbox onto the wire
	EvWait                        // Msg parked in Proc's waiting list; Deps = unmet dependencies
	EvJoin                        // Proc's joiner incarnation installed the state transfer; Stable = its stability vector
	EvFastForward                 // Proc skipped Msg.Proc's sequence through Msg.Seq, purged as uniformly stable
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EvGenerate:
		return "generate"
	case EvProcess:
		return "process"
	case EvDiscard:
		return "discard"
	case EvCrash:
		return "crash"
	case EvLeave:
		return "leave"
	case EvBroadcast:
		return "broadcast"
	case EvWait:
		return "wait"
	case EvJoin:
		return "join"
	case EvFastForward:
		return "fastfwd"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded protocol event.
type Event struct {
	At     sim.Time
	Kind   Kind
	Proc   mid.ProcID
	Msg    mid.MID       // EvGenerate/EvProcess/EvDiscard/EvBroadcast/EvWait/EvFastForward
	Deps   mid.DepList   // EvGenerate: the message's labels; EvWait: the unmet deps
	Stable mid.SeqVector // EvJoin: the stability vector installed
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case EvGenerate:
		return fmt.Sprintf("%6.2f %-8s p%d %v deps=%v", e.At.RTD(), e.Kind, e.Proc, e.Msg, e.Deps)
	case EvProcess, EvDiscard, EvBroadcast, EvFastForward:
		return fmt.Sprintf("%6.2f %-8s p%d %v", e.At.RTD(), e.Kind, e.Proc, e.Msg)
	case EvWait:
		return fmt.Sprintf("%6.2f %-8s p%d %v missing=%v", e.At.RTD(), e.Kind, e.Proc, e.Msg, e.Deps)
	case EvJoin:
		return fmt.Sprintf("%6.2f %-8s p%d stable=%v", e.At.RTD(), e.Kind, e.Proc, e.Stable)
	default:
		return fmt.Sprintf("%6.2f %-8s p%d", e.At.RTD(), e.Kind, e.Proc)
	}
}

// Recorder accumulates events. It is not safe for concurrent use; the
// simulator is single-goroutine.
type Recorder struct {
	N      int
	Events []Event
}

// NewRecorder returns a recorder for a group of n processes.
func NewRecorder(n int) *Recorder { return &Recorder{N: n} }

// Add appends an event.
func (r *Recorder) Add(e Event) { r.Events = append(r.Events, e) }

// Generate records a user message entering the system.
func (r *Recorder) Generate(at sim.Time, p mid.ProcID, m mid.MID, deps mid.DepList) {
	r.Add(Event{At: at, Kind: EvGenerate, Proc: p, Msg: m, Deps: deps.Clone()})
}

// Process records a processing event.
func (r *Recorder) Process(at sim.Time, p mid.ProcID, m mid.MID) {
	r.Add(Event{At: at, Kind: EvProcess, Proc: p, Msg: m})
}

// Discard records an agreed destruction.
func (r *Recorder) Discard(at sim.Time, p mid.ProcID, m mid.MID) {
	r.Add(Event{At: at, Kind: EvDiscard, Proc: p, Msg: m})
}

// Broadcast records an own message leaving the outbox onto the wire.
func (r *Recorder) Broadcast(at sim.Time, p mid.ProcID, m mid.MID) {
	r.Add(Event{At: at, Kind: EvBroadcast, Proc: p, Msg: m})
}

// Wait records a message parking in p's waiting list; missing is cloned
// (callers may hand a scratch-backed list, per the core OnWait contract).
func (r *Recorder) Wait(at sim.Time, p mid.ProcID, m mid.MID, missing mid.DepList) {
	r.Add(Event{At: at, Kind: EvWait, Proc: p, Msg: m, Deps: missing.Clone()})
}

// Crash records an injected fail-stop.
func (r *Recorder) Crash(at sim.Time, p mid.ProcID) {
	r.Add(Event{At: at, Kind: EvCrash, Proc: p})
}

// Leave records a self-exclusion.
func (r *Recorder) Leave(at sim.Time, p mid.ProcID) {
	r.Add(Event{At: at, Kind: EvLeave, Proc: p})
}

// Join records a joiner incarnation installing the state transfer at stable.
func (r *Recorder) Join(at sim.Time, p mid.ProcID, stable mid.SeqVector) {
	r.Add(Event{At: at, Kind: EvJoin, Proc: p, Stable: stable.Clone()})
}

// FastForward records p skipping q's sequence through to.
func (r *Recorder) FastForward(at sim.Time, p, q mid.ProcID, to mid.Seq) {
	r.Add(Event{At: at, Kind: EvFastForward, Proc: p, Msg: mid.MID{Proc: q, Seq: to}})
}

// Dump renders the whole log.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Verify replays the log into a faultrt.Checker and returns what it finds,
// empty when the log satisfies Definition 3.2: EvProcess is Record, with the
// labels of the message's earlier EvGenerate event; EvDiscard, EvJoin and
// EvFastForward are Discard, Restart and FastForward; an incarnation's first
// EvCrash or EvLeave is Halt once the log's clock has passed its instant —
// what the process did at that very instant still precedes the halt.
// Survivors are the processes whose last incarnation never halted. An event
// of a process outside [0, N) is reported as a "model" violation, first, and
// not replayed.
func (r *Recorder) Verify() []faultrt.Violation {
	var out []faultrt.Violation
	ck := faultrt.NewChecker()
	labels := map[mid.MID]mid.DepList{}
	halted := map[mid.ProcID]sim.Time{} // the current incarnation's halt instant
	for _, e := range r.Events {
		if e.Proc < 0 || int(e.Proc) >= r.N {
			out = append(out, faultrt.Violation{Invariant: "model", Node: e.Proc, Msg: e.Msg,
				Detail: fmt.Sprintf("%v event of a process outside the group of %d", e.Kind, r.N)})
			continue
		}
		if at, ok := halted[e.Proc]; ok && e.At > at {
			ck.Halt(e.Proc)
		}
		switch e.Kind {
		case EvGenerate:
			labels[e.Msg] = e.Deps
		case EvProcess:
			ck.Record(e.Proc, &causal.Message{ID: e.Msg, Deps: labels[e.Msg]})
		case EvDiscard:
			ck.Discard(e.Proc, e.Msg)
		case EvCrash, EvLeave:
			if _, ok := halted[e.Proc]; !ok {
				halted[e.Proc] = e.At
			}
		case EvJoin:
			delete(halted, e.Proc)
			ck.Restart(e.Proc, e.Stable)
		case EvFastForward:
			ck.FastForward(e.Proc, e.Msg.Proc, e.Msg.Seq)
		}
	}
	var survivors []mid.ProcID
	for p := mid.ProcID(0); int(p) < r.N; p++ {
		if _, ok := halted[p]; !ok {
			survivors = append(survivors, p)
		}
	}
	return append(out, ck.Check(survivors)...)
}
