package core

import (
	"errors"
	"fmt"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

// burstWorkload submits burst messages at every active process every period
// rounds — enough pending traffic per subrun to force multi-message frames
// when BatchMax > 1.
func burstWorkload(c *Cluster, period, bursts, burst int) func(round int) {
	return func(round int) {
		if round%period != 0 || round/period >= bursts {
			return
		}
		for i := 0; i < c.N(); i++ {
			p := mid.ProcID(i)
			if !c.Active(p) {
				continue
			}
			prev := mid.ProcID((i + c.N() - 1) % c.N())
			for k := 0; k < burst; k++ {
				var deps mid.DepList
				if s := c.Proc(p).Processed()[prev]; s > 0 {
					deps = mid.DepList{{Proc: prev, Seq: s}}
				}
				if _, err := c.Submit(p, []byte(fmt.Sprintf("b%d-%d-%d", i, round, k)), deps); err != nil {
					panic(err)
				}
			}
		}
	}
}

// TestBatchedRunConverges runs a bursty workload with multi-message subrun
// drains (BatchMax > 1) and asserts the batched wire path preserves the
// protocol's guarantees: same processed vectors everywhere, causal order in
// every log, and nothing lost.
func TestBatchedRunConverges(t *testing.T) {
	cfg := baseCfg(5)
	cfg.BatchMax = 8
	c, err := NewCluster(ClusterConfig{Config: cfg, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const bursts, burst = 6, 4
	res, err := c.Run(RunOptions{
		MaxRounds: 400, MinRounds: 4 * bursts,
		OnRound:           burstWorkload(c, 4, bursts, burst),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("batched group never became quiescent")
	}
	checkUniformity(t, c)
	checkCausalOrder(t, c)
	want := mid.Seq(bursts * burst)
	batches := 0
	for i := 0; i < c.N(); i++ {
		p := c.Proc(mid.ProcID(i))
		batches += p.Stats.Batches
		for q, s := range p.Processed() {
			if s != want {
				t.Fatalf("proc %d processed %d of p%d's messages, want %d", i, s, q, want)
			}
		}
	}
	if batches == 0 {
		t.Fatal("bursty workload with BatchMax=8 never broadcast a DataBatch frame")
	}
	if len(c.Left) != 0 {
		t.Fatalf("no process should leave under reliable batched traffic: %v", c.Left)
	}
}

// TestBatchedCrashRunConverges layers a coordinator crash over batched
// traffic: the survivors must still reach identical logs (Uniform
// Atomicity/Ordering restricted to survivors).
func TestBatchedCrashRunConverges(t *testing.T) {
	cfg := baseCfg(5)
	cfg.BatchMax = 8
	c, err := NewCluster(ClusterConfig{
		Config:   cfg,
		Seed:     22,
		Injector: faultrt.CrashAt{Proc: 4, At: sim.StartOfSubrun(3).Duration()},
	})
	if err != nil {
		t.Fatal(err)
	}
	const bursts, burst = 6, 4
	_, err = c.Run(RunOptions{
		MaxRounds: 600, MinRounds: 4 * bursts,
		OnRound:           burstWorkload(c, 4, bursts, burst),
		StopWhenQuiescent: true, DrainSubruns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkUniformity(t, c)
	checkCausalOrder(t, c)
}

// captureTP records broadcast PDUs for frame-shape assertions.
type captureTP struct{ bcast []wire.PDU }

func (t *captureTP) Send(mid.ProcID, wire.PDU) {}
func (t *captureTP) Broadcast(p wire.PDU)      { t.bcast = append(t.bcast, wire.Clone(p)) }
func (t *captureTP) dataFrames() (out []wire.PDU) {
	for _, p := range t.bcast {
		if p.Kind().IsData() {
			out = append(out, p)
		}
	}
	return out
}

// TestBatchSplitsToByteBudget drives one process directly and asserts the
// outbox drain splits into DataBatch frames whose encoded size respects
// BatchBytes, with a singleton remainder travelling as classic Data.
func TestBatchSplitsToByteBudget(t *testing.T) {
	cfg := baseCfg(3)
	cfg.BatchMax = 16
	cfg.BatchBytes = 80
	tp := &captureTP{}
	var batchCalls, batchMsgs int
	p, err := NewProcess(0, cfg, tp, Callbacks{
		OnBatchBroadcast: func(msgs, bytes int) {
			batchCalls++
			batchMsgs += msgs
			if bytes > cfg.BatchBytes {
				t.Errorf("OnBatchBroadcast reported %d bytes, budget %d", bytes, cfg.BatchBytes)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seven 10-byte messages: bodies of 22 bytes each, so frames pack three
	// messages (3+66=69 <= 80), leaving 3+3+1.
	for k := 0; k < 7; k++ {
		if _, err := p.Submit(make([]byte, 10), nil); err != nil {
			t.Fatal(err)
		}
	}
	p.StartRound(0)

	var got []mid.MID
	frames := tp.dataFrames()
	for _, f := range frames {
		switch v := f.(type) {
		case *wire.DataBatch:
			if len(v.Msgs) < 2 {
				t.Errorf("DataBatch frame with %d messages; singletons must travel as Data", len(v.Msgs))
			}
			if v.EncodedSize() > cfg.BatchBytes {
				t.Errorf("frame of %d bytes exceeds BatchBytes %d", v.EncodedSize(), cfg.BatchBytes)
			}
			for i := range v.Msgs {
				got = append(got, v.Msgs[i].ID)
			}
		case *wire.Data:
			got = append(got, v.Msg.ID)
		}
	}
	if len(frames) != 3 {
		t.Fatalf("7 messages under an 80-byte budget left in %d frames, want 3 (3+3+1)", len(frames))
	}
	if _, ok := frames[2].(*wire.Data); !ok {
		t.Errorf("remainder frame is %T, want classic *wire.Data for the singleton", frames[2])
	}
	for k, id := range got {
		if want := (mid.MID{Proc: 0, Seq: mid.Seq(k + 1)}); id != want {
			t.Fatalf("frame traversal yields %v at position %d, want %v (submission order)", id, k, want)
		}
	}
	if p.Stats.Batches != 2 || batchCalls != 2 || batchMsgs != 6 {
		t.Errorf("Stats.Batches=%d batchCalls=%d batchMsgs=%d, want 2/2/6", p.Stats.Batches, batchCalls, batchMsgs)
	}
	if p.Stats.Generated != 7 {
		t.Errorf("Stats.Generated=%d, want 7", p.Stats.Generated)
	}
}

// TestSubmitRejectsOversize pins the protocol-boundary guard added with the
// wire-limit bugfix: anything the 16-bit wire prefixes cannot carry is
// rejected at Submit with ErrTooLarge, never silently wrapped.
func TestSubmitRejectsOversize(t *testing.T) {
	p, err := NewProcess(0, baseCfg(3), &captureTP{}, Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(make([]byte, wire.MaxPayload), nil); err != nil {
		t.Fatalf("payload of MaxPayload bytes must be accepted: %v", err)
	}
	if _, err := p.Submit(make([]byte, wire.MaxPayload+1), nil); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("payload one past MaxPayload: err=%v, want ErrTooLarge", err)
	}
	deps := make(mid.DepList, wire.MaxDeps+1)
	for i := range deps {
		deps[i] = mid.MID{Proc: 1, Seq: mid.Seq(i + 1)}
	}
	if _, err := p.Submit([]byte("x"), deps); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("deps one past MaxDeps: err=%v, want ErrTooLarge", err)
	}
}
