package virtual

import (
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

func TestMapping(t *testing.T) {
	m := Mapping{Procs: 3, StreamsPerProc: 2}
	if m.GroupSize() != 6 {
		t.Errorf("GroupSize = %d", m.GroupSize())
	}
	v, err := m.Virtual(StreamID{Owner: 2, Stream: 1})
	if err != nil || v != 5 {
		t.Errorf("Virtual = %d, %v", v, err)
	}
	if s := m.Stream(5); s != (StreamID{Owner: 2, Stream: 1}) {
		t.Errorf("Stream = %v", s)
	}
	if m.Owner(3) != 1 {
		t.Errorf("Owner(3) = %d", m.Owner(3))
	}
	if _, err := m.Virtual(StreamID{Owner: 3, Stream: 0}); err == nil {
		t.Error("out-of-range owner accepted")
	}
	if _, err := m.Virtual(StreamID{Owner: 0, Stream: 2}); err == nil {
		t.Error("out-of-range stream accepted")
	}
	if (Mapping{Procs: 0, StreamsPerProc: 1}).Validate() == nil {
		t.Error("invalid mapping accepted")
	}
	if got := (StreamID{Owner: 2, Stream: 1}).String(); got != "p2/s1" {
		t.Errorf("String = %q", got)
	}
	if got := (MsgID{Stream: StreamID{2, 1}, Seq: 7}).String(); got != "p2/s1#7" {
		t.Errorf("MsgID String = %q", got)
	}
}

func TestConcurrentStreamsStayConcurrent(t *testing.T) {
	g, err := NewGroup(Config{
		Mapping: Mapping{Procs: 3, StreamsPerProc: 2},
		K:       3, R: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Owner 0 roots two independent sequences: audio (s0) and video (s1).
	// Neither labels the other, so they are concurrent by Definition 3.1.
	for k := 0; k < 5; k++ {
		if _, err := g.Submit(StreamID{0, 0}, []byte("audio"), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Submit(StreamID{0, 1}, []byte("video"), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Run(core.RunOptions{
		MaxRounds: 300, MinRounds: 2 * 2 * 5,
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	for owner := mid.ProcID(0); owner < 3; owner++ {
		for stream := 0; stream < 2; stream++ {
			got, err := g.Processed(owner, StreamID{Owner: 0, Stream: stream})
			if err != nil {
				t.Fatal(err)
			}
			if got != 5 {
				t.Errorf("owner %d processed %d of p0/s%d, want 5", owner, got, stream)
			}
		}
	}
}

func TestCrossStreamDependencyOrders(t *testing.T) {
	g, err := NewGroup(Config{
		Mapping: Mapping{Procs: 2, StreamsPerProc: 2},
		K:       3, R: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// p0/s0 emits a; p0/s1 emits b depending on a (a process may causally
	// relate its OWN streams under the general interpretation — exactly
	// what the intermediate interpretation forbids). The dependent message
	// is submitted once the sibling virtual member has processed a.
	a, err := g.Submit(StreamID{0, 0}, []byte("a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var b MsgID
	res, err := g.Run(core.RunOptions{
		MaxRounds: 200, MinRounds: 16,
		OnRound: func(round int) {
			if b.Seq != 0 || round%2 != 0 {
				return
			}
			if got, _ := g.Processed(0, StreamID{0, 0}); got >= a.Seq {
				var err error
				b, err = g.Submit(StreamID{0, 1}, []byte("b"), []MsgID{a})
				if err != nil {
					t.Errorf("submit b: %v", err)
				}
			}
		},
		StopWhenQuiescent: true, DrainSubruns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq == 0 {
		t.Fatal("b never submitted")
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	for owner := mid.ProcID(0); owner < 2; owner++ {
		log, err := g.ProcessedLogOf(owner)
		if err != nil {
			t.Fatal(err)
		}
		posA, posB := -1, -1
		for i, m := range log {
			if m == a {
				posA = i
			}
			if m == b {
				posB = i
			}
		}
		if posA < 0 || posB < 0 || posA > posB {
			t.Errorf("owner %d: a at %d, b at %d (log %v)", owner, posA, posB, log)
		}
	}
}

func TestOwnStreamDepRejected(t *testing.T) {
	g, err := NewGroup(Config{
		Mapping: Mapping{Procs: 2, StreamsPerProc: 2},
		K:       3, R: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.Submit(StreamID{0, 0}, []byte("a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(StreamID{0, 0}, []byte("b"), []MsgID{a}); err == nil {
		t.Error("own-stream explicit dep must be rejected (implicit chain)")
	}
}

func TestTreeStructuredHistoryEquivalence(t *testing.T) {
	// The paper: the general interpretation implies a tree-structured
	// history per process. Under the virtual-member construction the
	// "tree" is the set of per-stream branches; verify the underlying flat
	// histories stay per-virtual-member contiguous while the owner's
	// streams interleave freely in processing order.
	g, err := NewGroup(Config{
		Mapping: Mapping{Procs: 2, StreamsPerProc: 3},
		K:       3, R: 8, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		for s := 0; s < 3; s++ {
			if _, err := g.Submit(StreamID{1, s}, []byte("x"), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := g.Run(core.RunOptions{
		MaxRounds: 300, MinRounds: 2 * 2 * 4,
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	log, err := g.ProcessedLogOf(0)
	if err != nil {
		t.Fatal(err)
	}
	// Per-branch contiguity.
	next := map[StreamID]mid.Seq{}
	interleavings := 0
	var prev StreamID
	for i, m := range log {
		if m.Seq != next[m.Stream]+1 {
			t.Fatalf("branch %v out of order at %v", m.Stream, m)
		}
		next[m.Stream] = m.Seq
		if i > 0 && m.Stream != prev {
			interleavings++
		}
		prev = m.Stream
	}
	if interleavings == 0 {
		t.Error("concurrent branches should interleave in processing order")
	}
}

// TestOwnerCrashSharedFate crashes a real process by fail-stopping all of
// its virtual members at the same instant (they share a machine). The
// survivors converge and exclude every one of the owner's streams.
func TestOwnerCrashSharedFate(t *testing.T) {
	m := Mapping{Procs: 3, StreamsPerProc: 2}
	crashAt := sim.StartOfSubrun(4)
	var inj faultrt.Multi
	for s := 0; s < m.StreamsPerProc; s++ {
		v, err := m.Virtual(StreamID{Owner: 2, Stream: s})
		if err != nil {
			t.Fatal(err)
		}
		inj = append(inj, faultrt.CrashAt{Proc: v, At: crashAt.Duration()})
	}
	inner, err := core.NewCluster(core.ClusterConfig{
		Config:   core.Config{N: m.GroupSize(), K: 3, R: 8, SelfExclusion: true},
		Seed:     5,
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &Group{Mapping: m, C: inner}
	perStream := 8
	res, err := g.Run(core.RunOptions{
		MaxRounds: 600, MinRounds: 2 * 2 * perStream,
		OnRound: func(round int) {
			if round%2 != 0 || round/2 >= perStream {
				return
			}
			for owner := 0; owner < 2; owner++ { // survivors only
				for s := 0; s < 2; s++ {
					_, _ = g.Submit(StreamID{Owner: mid.ProcID(owner), Stream: s}, []byte("x"), nil)
				}
			}
		},
		StopWhenQuiescent: true, DrainSubruns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	// Survivors' views exclude both of owner 2's virtual members.
	for owner := mid.ProcID(0); owner < 2; owner++ {
		first, _ := m.Virtual(StreamID{Owner: owner, Stream: 0})
		view := g.C.Proc(first).View()
		for s := 0; s < 2; s++ {
			v, _ := m.Virtual(StreamID{Owner: 2, Stream: s})
			if view.Alive(v) {
				t.Errorf("owner %d still believes p2/s%d alive", owner, s)
			}
		}
		// And they processed every surviving stream fully.
		for o := 0; o < 2; o++ {
			for s := 0; s < 2; s++ {
				got, _ := g.Processed(owner, StreamID{Owner: mid.ProcID(o), Stream: s})
				if got != mid.Seq(perStream) {
					t.Errorf("owner %d processed %d of p%d/s%d", owner, got, o, s)
				}
			}
		}
	}
}
