// Package faultrt implements the general omission failure model of Section 3
// of the paper: a process fails either by crashing (fail stop) or by
// omitting to send or receive a subset of the messages the protocol
// requires. Subnetwork loss is modelled as an omission attributed to the
// link, which the protocol cannot distinguish from process omissions —
// exactly the property urcgc exploits to stay transport-agnostic.
//
// One vocabulary serves two clocks. The wall-clock runtime (internal/rt)
// injects at the transport boundary — the in-process mesh where a datagram
// would cross node boundaries, the UDP runtime immediately before the
// socket write and after the datagram read — and the discrete-event
// simulator (internal/simnet) consults the same injectors on every
// simulated packet, reading its virtual clock as elapsed time
// (sim.Time.Duration). Either way every injected failure is
// indistinguishable, to the protocol, from a real network or process fault,
// and the protocol's history-based recovery, attempts counters and suicide
// rule do the repair.
//
// Injectors are deterministic given their construction parameters (seed
// where randomized) and the sequence of consultations: replaying the same
// consultation sequence against an injector built from the same parameters
// yields the identical verdict sequence. The simulator is single-goroutine,
// so a simulated run replays exactly. Under real concurrency the
// consultation sequence itself varies run to run, so end-to-end determinism
// lives one level up, in the seeded Schedule (the planned faults are a pure
// function of the seed) and in the serialized Hook trace.
//
// Time is relative: every consultation carries the elapsed duration since
// the run started, so schedules read like the paper's experiment scripts
// ("the crash occurs at 10 s", "failures occur during the first 5 rtd").
//
// Combinator scoping: During and OnlyProc scope the world their inner
// injector sees. Outside During's window, or for another process's
// datagrams, the inner injector is not consulted at all, so a
// counter-based inner like DropEvery counts in-window (own-process)
// datagrams only — During{DropEvery{N}} means "every Nth datagram of the
// window", not "the window's share of a run-long cadence". Multi is the
// deliberate opposite: it consults every member on every datagram, so
// sibling counters advance consistently regardless of composition order.
// The simulated experiments (Figure 6, the ablations) depend on
// window-scoped counting; a regression test pins the composed schedule.
package faultrt

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"urcgc/internal/mid"
)

// Kind classifies an injected fault for counters and traces.
type Kind uint8

// Fault kinds.
const (
	KindDrop      Kind = iota // omission: the datagram is destroyed
	KindDelay                 // the datagram is held back (reordering when jittered)
	KindDuplicate             // extra copies of the datagram are delivered
	KindPartition             // omission charged to a network cut
	KindCrash                 // fail-stop of a whole process
	nKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindDuplicate:
		return "duplicate"
	case KindPartition:
		return "partition"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds returns every fault kind, for per-kind counter setup.
func Kinds() []Kind {
	out := make([]Kind, 0, nKinds)
	for k := Kind(0); k < nKinds; k++ {
		out = append(out, k)
	}
	return out
}

// KindSet is a bitmask of fault kinds.
type KindSet uint8

// Has reports whether the set contains k.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// With returns the set extended with k.
func (s KindSet) With(k Kind) KindSet { return s | 1<<k }

// String renders the set as "drop+delay".
func (s KindSet) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for k := Kind(0); k < nKinds; k++ {
		if s.Has(k) {
			parts = append(parts, k.String())
		}
	}
	return strings.Join(parts, "+")
}

// Action is an injector's verdict on one datagram. The zero Action lets the
// datagram pass untouched.
type Action struct {
	// Drop destroys the datagram (an omission).
	Drop bool
	// Delay holds the datagram back before handing it on. Combined with
	// jitter (see DelayEvery) later datagrams overtake it — the wall-clock
	// realization of reordering, which the paper's omission model does not
	// distinguish from loss-plus-recovery.
	Delay time.Duration
	// Dup is how many extra copies to deliver beyond the original.
	Dup int
	// Kinds names the fault kinds that produced this verdict, for counters.
	Kinds KindSet
}

// Faulty reports whether the action does anything at all.
func (a Action) Faulty() bool { return a.Drop || a.Delay > 0 || a.Dup > 0 }

// merge folds another verdict in (Multi semantics): any drop wins, the
// longest delay wins, duplicates accumulate, kinds union.
func (a *Action) merge(b Action) {
	a.Drop = a.Drop || b.Drop
	if b.Delay > a.Delay {
		a.Delay = b.Delay
	}
	a.Dup += b.Dup
	a.Kinds |= b.Kinds
}

// Injector decides which failures occur. The runtime and the simulator
// consult Send for every datagram about to leave src for dst, Recv for every
// datagram about to be handed to dst's protocol entity, and Crashed to
// fail-stop whole processes. group is the hosted group the datagram belongs
// to (0 on a single-group member, and always 0 in the simulator); now is the
// elapsed time since the run started.
//
// Implementations need not be goroutine-safe: the Hook serializes every
// consultation (the runtime consults from several node goroutines), and the
// simulator consults from its one goroutine.
type Injector interface {
	// Crashed reports whether process p has fail-stopped by elapsed time now.
	Crashed(p mid.ProcID, now time.Duration) bool
	// Send returns the verdict for a datagram of group src->dst at the send
	// boundary.
	Send(group uint32, src, dst mid.ProcID, now time.Duration) Action
	// Recv returns the verdict for a datagram of group src->dst at the
	// receive boundary.
	Recv(group uint32, src, dst mid.ProcID, now time.Duration) Action
}

// Side selects where a fault is applied: the protocol cannot distinguish
// the two, but the hooks differ (send faults happen before the wire, receive
// faults after it).
type Side int

// Fault sides.
const (
	AtSend Side = iota // before the socket write / mesh hand-off
	AtRecv             // after the datagram read, before the protocol sees it
)

// None is the reliable network: no faults at all.
type None struct{}

// Crashed implements Injector.
func (None) Crashed(mid.ProcID, time.Duration) bool { return false }

// Send implements Injector.
func (None) Send(uint32, mid.ProcID, mid.ProcID, time.Duration) Action { return Action{} }

// Recv implements Injector.
func (None) Recv(uint32, mid.ProcID, mid.ProcID, time.Duration) Action { return Action{} }

// CrashAt fail-stops one process at a fixed elapsed time, permanently: from
// At onwards it neither sends nor receives, like a crashed site.
type CrashAt struct {
	Proc mid.ProcID
	At   time.Duration
}

// Crashed implements Injector.
func (c CrashAt) Crashed(p mid.ProcID, now time.Duration) bool {
	return p == c.Proc && now >= c.At
}

// Send implements Injector: a crashed sender emits nothing.
func (c CrashAt) Send(_ uint32, src, _ mid.ProcID, now time.Duration) Action {
	if c.Crashed(src, now) {
		return Action{Drop: true, Kinds: KindSet(0).With(KindCrash)}
	}
	return Action{}
}

// Recv implements Injector: a crashed receiver absorbs nothing.
func (c CrashAt) Recv(_ uint32, _, dst mid.ProcID, now time.Duration) Action {
	if c.Crashed(dst, now) {
		return Action{Drop: true, Kinds: KindSet(0).With(KindCrash)}
	}
	return Action{}
}

// DropEvery destroys every N-th datagram it is consulted about on its side,
// counting globally — the deterministic reading of the paper's "one
// omission failure each 500 messages" (the 1/500 and 1/100 curves of
// Figure 4). N <= 0 disables it.
type DropEvery struct {
	N    int
	Side Side
	seen int
}

// Crashed implements Injector.
func (*DropEvery) Crashed(mid.ProcID, time.Duration) bool { return false }

// Send implements Injector.
func (d *DropEvery) Send(_ uint32, _, _ mid.ProcID, _ time.Duration) Action {
	if d.Side != AtSend {
		return Action{}
	}
	return d.tick()
}

// Recv implements Injector.
func (d *DropEvery) Recv(_ uint32, _, _ mid.ProcID, _ time.Duration) Action {
	if d.Side != AtRecv {
		return Action{}
	}
	return d.tick()
}

func (d *DropEvery) tick() Action {
	if d.N <= 0 {
		return Action{}
	}
	d.seen++
	if d.seen%d.N == 0 {
		return Action{Drop: true, Kinds: KindSet(0).With(KindDrop)}
	}
	return Action{}
}

// DropRate destroys datagrams independently with probability P, from its
// own seeded RNG so composed injectors do not perturb each other's streams.
type DropRate struct {
	P    float64
	Side Side
	rng  *rand.Rand
}

// NewDropRate returns a probabilistic omission injector.
func NewDropRate(p float64, side Side, seed int64) *DropRate {
	return &DropRate{P: p, Side: side, rng: rand.New(rand.NewSource(seed))}
}

// Crashed implements Injector.
func (*DropRate) Crashed(mid.ProcID, time.Duration) bool { return false }

// Send implements Injector.
func (d *DropRate) Send(_ uint32, _, _ mid.ProcID, _ time.Duration) Action {
	if d.Side == AtSend && d.rng.Float64() < d.P {
		return Action{Drop: true, Kinds: KindSet(0).With(KindDrop)}
	}
	return Action{}
}

// Recv implements Injector.
func (d *DropRate) Recv(_ uint32, _, _ mid.ProcID, _ time.Duration) Action {
	if d.Side == AtRecv && d.rng.Float64() < d.P {
		return Action{Drop: true, Kinds: KindSet(0).With(KindDrop)}
	}
	return Action{}
}

// DelayEvery holds back every N-th datagram on its side by D plus a seeded
// jitter in [0, Jitter). With nonzero jitter, delayed datagrams are
// overtaken by later ones: this is how reordering is injected — the
// protocol, built on the omission model, must treat an overtaken datagram
// exactly like a late retransmission.
type DelayEvery struct {
	N      int
	D      time.Duration
	Jitter time.Duration
	Side   Side
	rng    *rand.Rand
	seen   int
}

// NewDelayEvery returns a deterministic delay/reorder injector.
func NewDelayEvery(n int, d, jitter time.Duration, side Side, seed int64) *DelayEvery {
	return &DelayEvery{N: n, D: d, Jitter: jitter, Side: side, rng: rand.New(rand.NewSource(seed))}
}

// Crashed implements Injector.
func (*DelayEvery) Crashed(mid.ProcID, time.Duration) bool { return false }

// Send implements Injector.
func (d *DelayEvery) Send(_ uint32, _, _ mid.ProcID, _ time.Duration) Action {
	if d.Side != AtSend {
		return Action{}
	}
	return d.tick()
}

// Recv implements Injector.
func (d *DelayEvery) Recv(_ uint32, _, _ mid.ProcID, _ time.Duration) Action {
	if d.Side != AtRecv {
		return Action{}
	}
	return d.tick()
}

func (d *DelayEvery) tick() Action {
	if d.N <= 0 {
		return Action{}
	}
	d.seen++
	if d.seen%d.N != 0 {
		return Action{}
	}
	delay := d.D
	if d.Jitter > 0 && d.rng != nil {
		delay += time.Duration(d.rng.Int63n(int64(d.Jitter)))
	}
	if delay <= 0 {
		return Action{}
	}
	return Action{Delay: delay, Kinds: KindSet(0).With(KindDelay)}
}

// DupEvery delivers Copies extra copies of every N-th datagram on its side.
// The protocol's duplicate detection (history sequence numbers) must absorb
// them silently.
type DupEvery struct {
	N      int
	Copies int
	Side   Side
	seen   int
}

// Crashed implements Injector.
func (*DupEvery) Crashed(mid.ProcID, time.Duration) bool { return false }

// Send implements Injector.
func (d *DupEvery) Send(_ uint32, _, _ mid.ProcID, _ time.Duration) Action {
	if d.Side != AtSend {
		return Action{}
	}
	return d.tick()
}

// Recv implements Injector.
func (d *DupEvery) Recv(_ uint32, _, _ mid.ProcID, _ time.Duration) Action {
	if d.Side != AtRecv {
		return Action{}
	}
	return d.tick()
}

func (d *DupEvery) tick() Action {
	if d.N <= 0 {
		return Action{}
	}
	d.seen++
	if d.seen%d.N != 0 {
		return Action{}
	}
	copies := d.Copies
	if copies <= 0 {
		copies = 1
	}
	return Action{Dup: copies, Kinds: KindSet(0).With(KindDuplicate)}
}

// Partition cuts the group in two for a time window: datagrams crossing the
// cut are destroyed at the send boundary in both directions; traffic within
// a side flows normally. Heal by letting the window end. A cut shorter than
// the K detection window is just a burst of omissions (nobody is declared
// crashed); a longer one triggers the paper's split-brain behavior — each
// side excludes the other, and colliding decisions drive suicides on heal.
type Partition struct {
	From, To time.Duration
	// SideA holds the processes of one side; everyone else is on the other.
	SideA map[mid.ProcID]bool
}

// Crashed implements Injector.
func (Partition) Crashed(mid.ProcID, time.Duration) bool { return false }

// Send implements Injector.
func (p Partition) Send(_ uint32, src, dst mid.ProcID, now time.Duration) Action {
	if now < p.From || now >= p.To || p.SideA[src] == p.SideA[dst] {
		return Action{}
	}
	return Action{Drop: true, Kinds: KindSet(0).With(KindPartition)}
}

// Recv implements Injector.
func (Partition) Recv(uint32, mid.ProcID, mid.ProcID, time.Duration) Action { return Action{} }

// Cut destroys, at the send boundary, every datagram its predicate selects —
// a partition drawn by the caller, per group if it likes: the seam the
// multi-group soaks and tests cut one group's traffic with while the others,
// on the same link, flow untouched.
type Cut func(group uint32, src, dst mid.ProcID) bool

// Crashed implements Injector.
func (Cut) Crashed(mid.ProcID, time.Duration) bool { return false }

// Send implements Injector.
func (c Cut) Send(group uint32, src, dst mid.ProcID, _ time.Duration) Action {
	if !c(group, src, dst) {
		return Action{}
	}
	return Action{Drop: true, Kinds: KindSet(0).With(KindPartition)}
}

// Recv implements Injector.
func (Cut) Recv(uint32, mid.ProcID, mid.ProcID, time.Duration) Action { return Action{} }

// During confines an inner injector's datagram faults to the window
// [From, To). Crashes are not windowed — a crash inside the window is still
// permanent, matching Figure 6's "failures are considered to occur during
// the first 5 rtd". The window scopes the inner injector's world: outside it
// the inner injector is not consulted, so counter-based inner injectors
// (DropEvery, DelayEvery, DupEvery) count only in-window datagrams.
type During struct {
	From, To time.Duration
	Inner    Injector
}

// Crashed implements Injector.
func (d During) Crashed(p mid.ProcID, now time.Duration) bool {
	return d.Inner.Crashed(p, now)
}

// Send implements Injector.
func (d During) Send(group uint32, src, dst mid.ProcID, now time.Duration) Action {
	if now < d.From || now >= d.To {
		return Action{}
	}
	return d.Inner.Send(group, src, dst, now)
}

// Recv implements Injector.
func (d During) Recv(group uint32, src, dst mid.ProcID, now time.Duration) Action {
	if now < d.From || now >= d.To {
		return Action{}
	}
	return d.Inner.Recv(group, src, dst, now)
}

// OnlyProc restricts an inner injector's faults to datagrams sent by (at
// the send boundary) or addressed to (at the receive boundary) one process,
// modelling a single faulty process under the general omission model. Like
// During, the filter scopes the inner injector's world: other processes'
// datagrams are not consulted.
type OnlyProc struct {
	Proc  mid.ProcID
	Inner Injector
}

// Crashed implements Injector.
func (o OnlyProc) Crashed(p mid.ProcID, now time.Duration) bool {
	return o.Inner.Crashed(p, now)
}

// Send implements Injector.
func (o OnlyProc) Send(group uint32, src, dst mid.ProcID, now time.Duration) Action {
	if src != o.Proc {
		return Action{}
	}
	return o.Inner.Send(group, src, dst, now)
}

// Recv implements Injector.
func (o OnlyProc) Recv(group uint32, src, dst mid.ProcID, now time.Duration) Action {
	if dst != o.Proc {
		return Action{}
	}
	return o.Inner.Recv(group, src, dst, now)
}

// Multi composes injectors. Every member is consulted on every datagram —
// even after an earlier member already injected a fault — so counter- and
// rng-based members advance identically however the composition is
// ordered; the verdicts merge (any drop wins, the longest delay wins,
// duplicates accumulate).
type Multi []Injector

// Crashed implements Injector.
func (m Multi) Crashed(p mid.ProcID, now time.Duration) bool {
	crashed := false
	for _, in := range m {
		if in.Crashed(p, now) {
			crashed = true
		}
	}
	return crashed
}

// Send implements Injector.
func (m Multi) Send(group uint32, src, dst mid.ProcID, now time.Duration) Action {
	var act Action
	for _, in := range m {
		act.merge(in.Send(group, src, dst, now))
	}
	return act
}

// Recv implements Injector.
func (m Multi) Recv(group uint32, src, dst mid.ProcID, now time.Duration) Action {
	var act Action
	for _, in := range m {
		act.merge(in.Recv(group, src, dst, now))
	}
	return act
}

// Crashes builds one CrashAt per entry of schedule, in deterministic
// (ProcID) order so rng-bearing compositions replay identically.
func Crashes(schedule map[mid.ProcID]time.Duration) Multi {
	procs := make([]mid.ProcID, 0, len(schedule))
	for p := range schedule {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	m := make(Multi, 0, len(procs))
	for _, p := range procs {
		m = append(m, CrashAt{Proc: p, At: schedule[p]})
	}
	return m
}
