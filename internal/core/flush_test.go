package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// flushProc builds a bare process over the frame-capturing transport.
func flushProc(t *testing.T, id mid.ProcID, cfg Config) (*Process, *captureTP) {
	t.Helper()
	tp := &captureTP{}
	p, err := NewProcess(id, cfg, tp, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	return p, tp
}

func mustSubmit(t *testing.T, p *Process, payload string) mid.MID {
	t.Helper()
	id, err := p.Submit([]byte(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestFlushSpendsOneOpportunityPerSubrun pins the send-on-submit rule: an
// idle member's message leaves at once; a second submission in the same
// subrun waits for the tick; the tick's own send spends the new subrun's
// opportunity, so a busy member behaves exactly as without Flush.
func TestFlushSpendsOneOpportunityPerSubrun(t *testing.T) {
	p, tp := flushProc(t, 1, Config{N: 3, K: 2, R: 5})
	p.StartRound(0) // the tick finds an empty outbox: opportunity unspent

	first := mustSubmit(t, p, "first")
	if !p.Flush() {
		t.Fatal("idle member: Flush did not take the unspent opportunity")
	}
	if got := tp.dataFrames(); len(got) != 1 || got[0].(*wire.Data).Msg.ID != first {
		t.Fatalf("after the eager flush: data frames %v, want Data{%v}", got, first)
	}
	if p.Processed()[1] != 1 || p.PendingSubmissions() != 0 {
		t.Fatalf("the eager broadcast must also process locally: processed %v pending %d",
			p.Processed(), p.PendingSubmissions())
	}

	second := mustSubmit(t, p, "second")
	if p.Flush() {
		t.Fatal("second submission in the same subrun was flushed: two opportunities spent in one subrun")
	}
	p.StartRound(1) // decision phase: not a send opportunity
	if p.Flush() || len(tp.dataFrames()) != 1 {
		t.Fatal("the decision round handed out a send opportunity")
	}

	p.StartRound(2) // next subrun: the tick sends and spends it itself
	if got := tp.dataFrames(); len(got) != 2 || got[1].(*wire.Data).Msg.ID != second {
		t.Fatalf("after the tick: data frames %v, want second Data{%v}", got, second)
	}
	mustSubmit(t, p, "third")
	if p.Flush() {
		t.Fatal("busy member (tick already sent) was given a second opportunity by Flush")
	}
	if got := p.Stats.EagerBroadcasts; got != 1 {
		t.Fatalf("Stats.EagerBroadcasts = %d, want 1", got)
	}
	if got := p.Stats.Generated; got != 2 {
		t.Fatalf("Stats.Generated = %d, want 2 (the third still waits)", got)
	}
}

// TestFlushHonoursFlowControlValve: a closed Section 6 valve defers the
// eager send exactly as it defers the tick's, and the opportunity the tick
// could not use is there to take once the history has drained.
func TestFlushHonoursFlowControlValve(t *testing.T) {
	p, tp := flushProc(t, 0, Config{N: 3, K: 2, R: 5, HistoryThreshold: 1})
	p.StartRound(0)
	mustSubmit(t, p, "fills the history")
	if !p.Flush() {
		t.Fatal("open valve: Flush refused")
	}
	p.StartRound(2)

	mustSubmit(t, p, "held")
	if p.Flush() {
		t.Fatal("Flush broadcast through a closed valve (history at threshold)")
	}
	p.StartRound(4) // the tick is deferred too: the opportunity stays unspent
	if len(tp.dataFrames()) != 1 {
		t.Fatal("the tick broadcast through a closed valve")
	}

	// A full-group decision makes the first message stable: history drains.
	p.Recv(1, fullGroupDecision(3, 2, 2, mid.SeqVector{1, 0, 0}))
	if p.HistoryLen() != 0 {
		t.Fatalf("history length %d after the cleaning decision, want 0", p.HistoryLen())
	}
	if !p.Flush() {
		t.Fatal("valve reopened mid-subrun with the opportunity unspent, yet Flush refused")
	}
	if len(tp.dataFrames()) != 2 {
		t.Fatalf("data frames %d, want 2", len(tp.dataFrames()))
	}
}

// TestFlushNoOpWhenJoiningOrLeft: a joiner never generates, and a process
// that left emits nothing.
func TestFlushNoOpWhenJoiningOrLeft(t *testing.T) {
	j, jtp := flushProc(t, 2, Config{N: 3, K: 2, R: 5, Join: true})
	j.StartRound(0)
	if j.Flush() || len(jtp.bcast) != 0 {
		t.Fatal("a joiner flushed")
	}

	p, tp := flushProc(t, 0, Config{N: 3, K: 2, R: 5})
	p.StartRound(0)
	mustSubmit(t, p, "queued")
	d := fullGroupDecision(3, 0, 1, mid.NewSeqVector(3))
	d.Alive[0] = false // declared crashed: suicide
	p.Recv(1, d)
	if p.Running() {
		t.Fatal("process did not leave")
	}
	if p.Flush() || len(tp.dataFrames()) != 0 {
		t.Fatal("a process that left the group flushed")
	}
}

// TestFlushSendsCoalescedBatchAsOneFrame: the runtimes flush once, after a
// whole coalescer window has been submitted, so the window leaves as ONE
// DataBatch — not a Data for the first message and a batch at the tick.
func TestFlushSendsCoalescedBatchAsOneFrame(t *testing.T) {
	p, tp := flushProc(t, 0, Config{N: 3, K: 2, R: 5, BatchMax: 8})
	p.StartRound(0)
	for i := 0; i < 5; i++ {
		mustSubmit(t, p, "windowed")
	}
	if !p.Flush() {
		t.Fatal("Flush refused")
	}
	frames := tp.dataFrames()
	if len(frames) != 1 {
		t.Fatalf("%d data frames, want 1", len(frames))
	}
	b, ok := frames[0].(*wire.DataBatch)
	if !ok || len(b.Msgs) != 5 {
		t.Fatalf("frame %T, want one DataBatch of 5", frames[0])
	}
	if p.Stats.Batches != 1 || p.Stats.EagerBroadcasts != 1 {
		t.Fatalf("Stats %+v: want Batches 1, EagerBroadcasts 1", p.Stats)
	}
}

// TestFlushEmptyOutboxAllocFree: the runtimes call Flush after every
// submission event, and on a busy member it is almost always a no-op: the
// outbox is empty, or the subrun's budget is spent.
func TestFlushEmptyOutboxAllocFree(t *testing.T) {
	for _, b := range []int{1, 4} {
		p, _ := flushProc(t, 0, Config{N: 3, K: 2, R: 5, ThresholdPerAlive: 8, BatchMax: b})
		p.StartRound(0)
		if allocs := testing.AllocsPerRun(1000, func() { p.Flush() }); allocs != 0 {
			t.Fatalf("B=%d: Flush on an empty outbox: %v allocs/op, want 0", b, allocs)
		}
		submitN(t, p, b)
		p.Flush()
		mustSubmit(t, p, "past the budget") // budget spent, outbox non-empty
		if allocs := testing.AllocsPerRun(1000, func() { p.Flush() }); allocs != 0 {
			t.Fatalf("B=%d: Flush with the budget spent: %v allocs/op, want 0", b, allocs)
		}
		if p.PendingSubmissions() != 1 {
			t.Fatalf("B=%d: %d pending, want the one past the budget", b, p.PendingSubmissions())
		}
	}
}

func submitN(t *testing.T, p *Process, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		mustSubmit(t, p, "x")
	}
}

// frameSeqs lists the own sequence numbers a Data or DataBatch frame carries.
func frameSeqs(pdu wire.PDU) (out []mid.Seq) {
	switch f := pdu.(type) {
	case *wire.Data:
		out = append(out, f.Msg.ID.Seq)
	case *wire.DataBatch:
		for _, m := range f.Msgs {
			out = append(out, m.ID.Seq)
		}
	}
	return out
}

// frameLog is the captured data frames as sequence lists, in send order.
func frameLog(tp *captureTP) (out [][]mid.Seq) {
	for _, f := range tp.dataFrames() {
		out = append(out, frameSeqs(f))
	}
	return out
}

func frameSizes(tp *captureTP) (out []int) {
	for _, f := range frameLog(tp) {
		out = append(out, len(f))
	}
	return out
}

// TestFlushSpendsTheSubrunBudget pins the budget rule at B > 1: a subrun
// carries up to BatchMax of the member's messages however many flushes they
// leave in, a message past the budget waits for the tick, and a closed valve
// defers a flush with budget still left.
func TestFlushSpendsTheSubrunBudget(t *testing.T) {
	const b = 8
	t.Run("two windows in one subrun", func(t *testing.T) {
		p, tp := flushProc(t, 0, Config{N: 3, K: 2, R: 5, BatchMax: b})
		p.StartRound(0) // the tick finds an empty outbox: the whole budget is left
		submitN(t, p, 5)
		if !p.Flush() {
			t.Fatal("idle member: Flush refused the first window")
		}
		submitN(t, p, 3)
		if !p.Flush() {
			t.Fatal("the second window found 3 of the budget's 8 left, yet Flush refused")
		}
		if got := frameSizes(tp); !slices.Equal(got, []int{5, 3}) {
			t.Fatalf("frames of %v messages, want [5 3] in one subrun", got)
		}
		mustSubmit(t, p, "ninth")
		if p.Flush() {
			t.Fatal("the subrun's 9th message was flushed past the budget")
		}
		p.StartRound(1) // decision phase: no new budget
		if p.Flush() {
			t.Fatal("the decision round refilled the budget")
		}
		p.StartRound(2) // next subrun: the tick sends the 9th
		if got := frameLog(tp); !slices.Equal(frameSizes(tp), []int{5, 3, 1}) || got[2][0] != 9 {
			t.Fatalf("frames %v, want the 9th alone at the tick", got)
		}
		if p.Stats.EagerBroadcasts != 2 || p.Stats.Generated != 9 {
			t.Fatalf("Stats %+v: want EagerBroadcasts 2, Generated 9", p.Stats)
		}
	})
	t.Run("window larger than what is left", func(t *testing.T) {
		p, tp := flushProc(t, 0, Config{N: 3, K: 2, R: 5, BatchMax: b})
		p.StartRound(0)
		submitN(t, p, 5)
		p.Flush()
		submitN(t, p, 6)
		if !p.Flush() {
			t.Fatal("Flush refused with 3 of the budget left")
		}
		if got := frameSizes(tp); !slices.Equal(got, []int{5, 3}) || p.PendingSubmissions() != 3 {
			t.Fatalf("frames of %v messages with %d pending, want [5 3] and 3 left for the tick", got, p.PendingSubmissions())
		}
		p.StartRound(1)
		p.StartRound(2)
		if got := frameSizes(tp); !slices.Equal(got, []int{5, 3, 3}) || p.PendingSubmissions() != 0 {
			t.Fatalf("frames of %v messages after the tick, want [5 3 3]", got)
		}
	})
	t.Run("closed valve between flushes", func(t *testing.T) {
		p, tp := flushProc(t, 1, Config{N: 3, K: 2, R: 5, BatchMax: b, HistoryThreshold: 4})
		p.StartRound(0)
		submitN(t, p, 4)
		if !p.Flush() {
			t.Fatal("open valve: Flush refused")
		}
		submitN(t, p, 2)
		if p.Flush() {
			t.Fatal("Flush broadcast through a closed valve (history at threshold) on the strength of the budget")
		}
		p.Recv(0, fullGroupDecision(3, 0, 0, mid.SeqVector{0, 4, 0}))
		if p.HistoryLen() != 0 {
			t.Fatalf("history length %d after the cleaning decision, want 0", p.HistoryLen())
		}
		if !p.Flush() {
			t.Fatal("valve reopened mid-subrun with 4 of the budget left, yet Flush refused")
		}
		if got := frameSizes(tp); !slices.Equal(got, []int{4, 2}) {
			t.Fatalf("frames of %v messages, want [4 2]", got)
		}
	})
}

// budgetModel is the send rule on its own — a queue, a budget and a history
// count — predicting the data frames a member's submissions, flushes, ticks
// and cleaning decisions produce. old selects the rule the budget replaced,
// one send opportunity per subrun spent by any drain, kept as the reference
// the budget must reproduce at B = 1.
type budgetModel struct {
	b, threshold        int
	old                 bool
	queued, sent, clean mid.Seq
	left                int
	frames              [][]mid.Seq
}

func newBudgetModel(b, threshold int, old bool) *budgetModel {
	return &budgetModel{b: b, threshold: threshold, old: old, left: b}
}

func (m *budgetModel) submit() { m.queued++ }

func (m *budgetModel) valveOpen() bool {
	return m.threshold == 0 || int(m.sent-m.clean) < m.threshold
}

// flush is Flush, and the tick's drain: it reports whether it broadcast.
func (m *budgetModel) flush() bool {
	if m.left == 0 || m.queued == m.sent || !m.valveOpen() {
		return false
	}
	frame := make([]mid.Seq, min(m.left, int(m.queued-m.sent)))
	for i := range frame {
		m.sent++
		frame[i] = m.sent
	}
	m.frames = append(m.frames, frame)
	if m.old {
		m.left = 0
	} else {
		m.left -= len(frame)
	}
	return true
}

func (m *budgetModel) round(r int) {
	if r%2 == 0 {
		m.left = m.b
		m.flush()
	}
}

// TestFlushBudgetProperty drives a member through seeded random sequences of
// submissions, flushes, rounds and cleaning decisions (which reopen a closed
// valve) and holds it, at every step, to the model of the budget rule and to
// the two properties the rule exists for: no subrun carries more than B of
// the member's messages, and its sequence leaves contiguous. At B = 1 the
// frame log must also be the old one-opportunity rule's, step for step.
func TestFlushBudgetProperty(t *testing.T) {
	const self, n = 1, 3
	var multiDrain, deferred int
	for _, b := range []int{1, 4, 32} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			threshold := []int{0, 3, 2 * b, 4 * b}[rng.Intn(4)]
			// K high and no self-exclusion: the lone member must not declare
			// its silent peers crashed or leave; its own coordinator
			// decisions never cover the group, so only the injected ones clean.
			p, tp := flushProc(t, self, Config{N: n, K: 200, R: 1, BatchMax: b, HistoryThreshold: threshold})
			model, ref := newBudgetModel(b, threshold, false), newBudgetModel(b, threshold, true)
			round, injected := 0, int64(-1)
			subrunStart := []int{0} // frame index at which each subrun opens; the first segment precedes round 0
			for step := 0; step < 300; step++ {
				var op string
				switch r := rng.Intn(100); {
				case r < 35:
					op = "submit"
					for k := 1 + rng.Intn(b+2); k > 0; k-- {
						mustSubmit(t, p, "x")
						model.submit()
						ref.submit()
					}
				case r < 70:
					op = "flush"
					left := model.left > 0 && model.queued > model.sent
					got, want := p.Flush(), model.flush()
					ref.flush()
					if got != want {
						t.Fatalf("B=%d seed %d step %d: Flush = %v, model %v", b, seed, step, got, want)
					}
					if left && !got {
						deferred++
					}
				case r < 85:
					op = "round"
					if round%2 == 0 {
						subrunStart = append(subrunStart, len(frameLog(tp)))
					}
					p.StartRound(round)
					model.round(round)
					ref.round(round)
					round++
				default:
					op = "clean"
					if s := p.Subrun(); s%n != self && s > injected && round > 0 {
						injected = s
						clean := mid.SeqVector{0, model.sent, 0}
						p.Recv(mid.ProcID(s%n), fullGroupDecision(n, s, mid.ProcID(s%n), clean))
						model.clean, ref.clean = model.sent, ref.sent
					}
				}
				got := frameLog(tp)
				if !reflect.DeepEqual(got, model.frames) {
					t.Fatalf("B=%d seed %d step %d (%s): frames %v, the budget model %v", b, seed, step, op, got, model.frames)
				}
				if b == 1 && !reflect.DeepEqual(got, ref.frames) {
					t.Fatalf("B=1 seed %d step %d (%s): frames %v, the one-opportunity rule %v", seed, step, op, got, ref.frames)
				}
			}
			log := frameLog(tp)
			next := mid.Seq(1)
			for _, f := range log {
				for _, s := range f {
					if s != next {
						t.Fatalf("B=%d seed %d: own sequence left as %v, not contiguous", b, seed, log)
					}
					next++
				}
			}
			subrunStart = append(subrunStart, len(log))
			for i := 1; i < len(subrunStart); i++ {
				msgs, frames := 0, log[subrunStart[i-1]:subrunStart[i]]
				for _, f := range frames {
					msgs += len(f)
				}
				if msgs > b {
					t.Fatalf("B=%d seed %d: one subrun carried %d messages in frames %v", b, seed, msgs, frames)
				}
				if len(frames) > 1 {
					multiDrain++
				}
			}
		}
	}
	t.Logf("%d subruns with several drains, %d flushes deferred by the valve", multiDrain, deferred)
	if multiDrain == 0 || deferred == 0 {
		t.Fatalf("%d subruns with several drains, %d flushes deferred by the valve: the sequences did not exercise the rule", multiDrain, deferred)
	}
}
