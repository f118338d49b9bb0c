package core

import (
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
// submission event, and on a busy member it is almost always a no-op.
func TestFlushEmptyOutboxAllocFree(t *testing.T) {
	p, _ := flushProc(t, 0, Config{N: 3, K: 2, R: 5, ThresholdPerAlive: 8})
	p.StartRound(0)
	if allocs := testing.AllocsPerRun(1000, func() { p.Flush() }); allocs != 0 {
		t.Fatalf("Flush on an empty outbox: %v allocs/op, want 0", allocs)
	}
	mustSubmit(t, p, "a")
	p.Flush()
	mustSubmit(t, p, "b") // opportunity spent, outbox non-empty
	if allocs := testing.AllocsPerRun(1000, func() { p.Flush() }); allocs != 0 {
		t.Fatalf("Flush with the opportunity spent: %v allocs/op, want 0", allocs)
	}
}
