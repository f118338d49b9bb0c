package core

import (
	"fmt"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/group"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

func baseCfg(n int) Config {
	return Config{N: n, K: 2, R: 8, SelfExclusion: true}
}

// checkCausalOrder asserts each process's log respects the causal relation:
// every message appears after all its effective dependencies.
func checkCausalOrder(t *testing.T, c *Cluster) {
	t.Helper()
	// Rebuild the message population from the logs to know the deps.
	for i, log := range c.ProcessedLog {
		seen := make(map[mid.MID]bool, len(log))
		last := mid.NewSeqVector(c.N())
		for _, id := range log {
			if id.Seq != last[id.Proc]+1 {
				t.Fatalf("proc %d log breaks sequence contiguity at %v (last %d)", i, id, last[id.Proc])
			}
			last[id.Proc] = id.Seq
			seen[id] = true
		}
	}
}

// checkUniformity asserts all active processes processed exactly the same
// messages (Uniform Atomicity restricted to survivors) and that ordering
// agreed (same per-sequence prefixes follow from contiguity + equal counts).
func checkUniformity(t *testing.T, c *Cluster) {
	t.Helper()
	var ref mid.SeqVector
	var refID mid.ProcID
	for _, p := range c.ActiveSet() {
		v := c.Proc(p).Processed()
		if ref == nil {
			ref, refID = v, p
			continue
		}
		if !ref.Equal(v) {
			t.Fatalf("active processes %d and %d disagree: %v vs %v", refID, p, ref, v)
		}
	}
}

// steadyWorkload submits one message at every process every period rounds,
// for total messages per process, with a cross dependency on the latest
// processed message of the previous process (a ring of causal relations).
func steadyWorkload(c *Cluster, period, perProc int) func(round int) {
	return func(round int) {
		if round%period != 0 {
			return
		}
		k := round / period
		if k >= perProc {
			return
		}
		for i := 0; i < c.N(); i++ {
			p := mid.ProcID(i)
			if !c.Active(p) {
				continue
			}
			prev := mid.ProcID((i + c.N() - 1) % c.N())
			var deps mid.DepList
			if s := c.Proc(p).Processed()[prev]; s > 0 {
				deps = mid.DepList{{Proc: prev, Seq: s}}
			}
			if _, err := c.Submit(p, []byte(fmt.Sprintf("m%d-%d", i, k)), deps); err != nil {
				panic(err)
			}
		}
	}
}

func TestReliableRunConverges(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Config: baseCfg(5), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	perProc := 10
	res, err := c.Run(RunOptions{
		MaxRounds: 400, MinRounds: 2 * 2 * perProc,
		OnRound:           steadyWorkload(c, 2, perProc),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("group never became quiescent")
	}
	checkUniformity(t, c)
	checkCausalOrder(t, c)
	want := mid.Seq(perProc)
	for i := 0; i < 5; i++ {
		v := c.Proc(mid.ProcID(i)).Processed()
		for q := 0; q < 5; q++ {
			if v[q] != want {
				t.Fatalf("proc %d processed %d of p%d's messages, want %d", i, v[q], q, want)
			}
		}
	}
	if len(c.Left) != 0 {
		t.Fatalf("no process should leave under reliable conditions: %v", c.Left)
	}
}

func TestReliableDelayIsHalfRTD(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Config: baseCfg(5), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(RunOptions{
		MaxRounds: 200, MinRounds: 80,
		OnRound:           steadyWorkload(c, 2, 15),
		StopWhenQuiescent: true, DrainSubruns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Delay.MeanRTD()
	// One-way latency is 0.25-0.35 rtd; self-processing is immediate, so the
	// mean sits a bit below the paper's >= 0.5 rtd bound computed for remote
	// processing only. Assert the remote-dominated band.
	if d < 0.15 || d > 0.6 {
		t.Errorf("reliable mean delay = %.3f rtd, want within [0.15, 0.6]", d)
	}
}

func TestHistoryCleanedUnderReliableRun(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Config: baseCfg(5), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(RunOptions{
		MaxRounds: 400, MinRounds: 120,
		OnRound:           steadyWorkload(c, 2, 30),
		StopWhenQuiescent: true, DrainSubruns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: without failures no more than 2n messages are retained.
	if maxH := c.HistMax.Max(); maxH > float64(2*c.N()) {
		t.Errorf("history peaked at %v, want <= 2n = %d", maxH, 2*c.N())
	}
	// After draining, histories must be fully cleaned.
	for i := 0; i < c.N(); i++ {
		if h := c.Proc(mid.ProcID(i)).HistoryLen(); h > c.N() {
			t.Errorf("proc %d retains %d messages after drain", i, h)
		}
	}
}

func TestCrashedProcessIsDeclaredAndExcluded(t *testing.T) {
	crashAt := sim.StartOfSubrun(3)
	c, err := NewCluster(ClusterConfig{
		Config:   baseCfg(5),
		Seed:     4,
		Injector: faultrt.CrashAt{Proc: 4, At: crashAt.Duration()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunOptions{
		MaxRounds: 300, MinRounds: 60,
		OnRound:           steadyWorkload(c, 2, 12),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("group never became quiescent despite the crash")
	}
	checkUniformity(t, c)
	for _, p := range c.ActiveSet() {
		if c.Proc(p).View().Alive(4) {
			t.Errorf("proc %d still believes 4 alive", p)
		}
	}
	// Survivors processed all of each other's messages.
	for _, p := range c.ActiveSet() {
		v := c.Proc(p).Processed()
		for q := 0; q < 4; q++ {
			if v[q] != 12 {
				t.Errorf("proc %d processed %d of p%d's, want 12", p, v[q], q)
			}
		}
	}
}

func TestCoordinatorCrashDoesNotBlock(t *testing.T) {
	// Process 0 coordinates subrun 0, 5, 10...; crash it right before its
	// second stint, mid-run.
	c, err := NewCluster(ClusterConfig{
		Config:   baseCfg(5),
		Seed:     5,
		Injector: faultrt.CrashAt{Proc: 0, At: sim.StartOfSubrun(5).Duration()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunOptions{
		MaxRounds: 300, MinRounds: 80,
		OnRound:           steadyWorkload(c, 2, 15),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("group never became quiescent despite coordinator crash")
	}
	checkUniformity(t, c)
	// Decisions kept flowing: later subruns produced decisions from other
	// coordinators. Count decisions observed by a survivor.
	if c.Decisions[1] < 10 {
		t.Errorf("survivor observed only %d decisions", c.Decisions[1])
	}
	// History still got cleaned after the crash (stability achieved on the
	// new group).
	for _, p := range c.ActiveSet() {
		if h := c.Proc(p).HistoryLen(); h > 2*c.N() {
			t.Errorf("proc %d history %d not cleaned after crash", p, h)
		}
	}
}

func TestOmissionRecoveryFromHistory(t *testing.T) {
	// Drop 3% of packets in the first 10 rtd. K=3 keeps isolated request
	// losses from triggering spurious crash declarations; every lost DATA
	// message must be recovered from history.
	cfg := Config{N: 5, K: 3, R: 8, SelfExclusion: true}
	c, err := NewCluster(ClusterConfig{
		Config: cfg,
		Seed:   6,
		Injector: faultrt.During{
			From: 0, To: (10 * sim.TicksPerRTD).Duration(),
			Inner: faultrt.NewDropRate(0.03, faultrt.AtSend, 1234),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunOptions{
		MaxRounds: 600, MinRounds: 80,
		OnRound:           steadyWorkload(c, 2, 15),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("group never recovered from omissions")
	}
	checkUniformity(t, c)
	checkCausalOrder(t, c)
	if len(c.Left) != 0 {
		t.Fatalf("processes left under mild omissions: %v", c.Left)
	}
	for _, p := range c.ActiveSet() {
		v := c.Proc(p).Processed()
		for q := 0; q < 5; q++ {
			if v[q] != 15 {
				t.Fatalf("proc %d processed %d of p%d's, want 15", p, v[q], q)
			}
		}
	}
	// Recovery actually happened.
	recoveries := 0
	for i := 0; i < 5; i++ {
		recoveries += c.Proc(mid.ProcID(i)).Stats.Recoveries
	}
	if recoveries == 0 {
		t.Error("expected recovery traffic under omissions")
	}
}

func TestSendFaultyProcessSuicides(t *testing.T) {
	// Process 3's sends all vanish from subrun 2 on: it stays alive and
	// keeps receiving, so it must learn it was declared crashed and commit
	// suicide.
	c, err := NewCluster(ClusterConfig{
		Config: baseCfg(5),
		Seed:   7,
		Injector: faultrt.During{
			From: sim.StartOfSubrun(2).Duration(), To: sim.Time(1 << 40).Duration(),
			Inner: faultrt.OnlyProc{Proc: 3, Inner: &faultrt.DropEvery{N: 1, Side: faultrt.AtSend}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(RunOptions{
		MaxRounds: 200, MinRounds: 60,
		OnRound: steadyWorkload(c, 2, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if reason, ok := c.Left[3]; !ok || reason != Suicide {
		t.Fatalf("process 3 should have committed suicide, Left = %v", c.Left)
	}
	for _, p := range c.ActiveSet() {
		if c.Proc(p).View().Alive(3) {
			t.Errorf("proc %d still believes 3 alive", p)
		}
	}
	checkUniformity(t, c)
}

func TestOrphanedSequenceIsDiscarded(t *testing.T) {
	// p0 submits msg1 whose broadcast is entirely lost (all p0 sends in
	// subrun 0 dropped), then msg2 which arrives. Receivers wait for msg1.
	// p0 crashes before any recovery can succeed. The group must agree to
	// destroy msg2 everywhere and move on.
	inj := faultrt.Multi{
		faultrt.During{
			From: 0, To: sim.StartOfSubrun(1).Duration(),
			Inner: faultrt.OnlyProc{Proc: 0, Inner: &faultrt.DropEvery{N: 1, Side: faultrt.AtSend}},
		},
		faultrt.CrashAt{Proc: 0, At: (sim.StartOfRound(2) + 400).Duration()},
	}
	c, err := NewCluster(ClusterConfig{Config: baseCfg(5), Seed: 8, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(RunOptions{
		MaxRounds: 200, MinRounds: 40,
		OnRound: func(round int) {
			switch round {
			case 0:
				if _, err := c.Submit(0, []byte("lost"), nil); err != nil {
					panic(err)
				}
			case 2:
				if _, err := c.Submit(0, []byte("orphan"), nil); err != nil {
					panic(err)
				}
			case 4:
				// Keep the group busy so decisions flow.
				for i := 1; i < 5; i++ {
					if _, err := c.Submit(mid.ProcID(i), []byte("x"), nil); err != nil {
						panic(err)
					}
				}
			}
		},
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every survivor discarded msg2 and processed nothing from p0.
	discards := 0
	for _, p := range c.ActiveSet() {
		if got := c.Proc(p).Processed()[0]; got != 0 {
			t.Errorf("proc %d processed %d of p0's messages, want 0", p, got)
		}
		discards += len(c.DiscardLog[p])
		if c.Proc(p).WaitingLen() != 0 {
			t.Errorf("proc %d still has %d waiting", p, c.Proc(p).WaitingLen())
		}
	}
	if discards == 0 {
		t.Error("expected agreed discards of the orphaned message")
	}
	checkUniformity(t, c)
	if len(c.Left) != 0 {
		t.Errorf("no survivor should self-exclude: %v", c.Left)
	}
}

func TestFlowControlBoundsHistory(t *testing.T) {
	cfg := baseCfg(4)
	cfg.HistoryThreshold = 8 // very tight: 2n
	c, err := NewCluster(ClusterConfig{Config: cfg, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Submit a big burst up front; flow control must pace it out.
	for i := 0; i < 4; i++ {
		for k := 0; k < 20; k++ {
			if _, err := c.Submit(mid.ProcID(i), []byte("burst"), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := c.Run(RunOptions{
		MaxRounds: 2000, MinRounds: 10,
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("burst never drained")
	}
	checkUniformity(t, c)
	// The bound: a process checks the threshold before generating, so the
	// history can overshoot by at most one generation wave (n messages).
	limit := float64(cfg.HistoryThreshold + cfg.N)
	if got := c.HistMax.Max(); got > limit {
		t.Errorf("history peaked at %v, want <= %v", got, limit)
	}
	for i := 0; i < 4; i++ {
		if v := c.Proc(mid.ProcID(i)).Processed(); v.Sum() != 80 {
			t.Fatalf("proc %d processed %d, want 80", i, v.Sum())
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() [][]mid.MID {
		c, err := NewCluster(ClusterConfig{
			Config:   baseCfg(5),
			Seed:     42,
			Injector: faultrt.Multi{faultrt.CrashAt{Proc: 2, At: sim.StartOfSubrun(4).Duration()}, &faultrt.DropEvery{N: 11, Side: faultrt.AtSend}},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(RunOptions{
			MaxRounds: 300, MinRounds: 60,
			OnRound:           steadyWorkload(c, 2, 10),
			StopWhenQuiescent: true, DrainSubruns: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.ProcessedLog
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("proc %d: %d vs %d processed", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("proc %d diverges at %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestCoordinatorOfSkipsCrashed(t *testing.T) {
	gv := group.NewView(4)
	gv.MarkCrashed(1)
	if got := CoordinatorOf(1, gv); got != 2 {
		t.Errorf("CoordinatorOf(1) = %d, want 2 (skipping crashed 1)", got)
	}
	if got := CoordinatorOf(5, gv); got != 2 {
		t.Errorf("CoordinatorOf(5) = %d, want 2", got)
	}
	if got := CoordinatorOf(0, gv); got != 0 {
		t.Errorf("CoordinatorOf(0) = %d, want 0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{N: 5, K: 2, R: 5, SelfExclusion: true}, true},
		{Config{N: 0, K: 2, R: 5}, false},
		{Config{N: 5, K: 0, R: 5}, false},
		{Config{N: 5, K: 2, R: 0}, false},
		{Config{N: 5, K: 2, R: 4, SelfExclusion: true}, false}, // R <= 2K
		{Config{N: 5, K: 2, R: 4, SelfExclusion: false}, true}, // relaxed without self-exclusion
		{Config{N: 5, K: 2, R: 5, HistoryThreshold: -1}, false},
	}
	for i, cse := range cases {
		if err := cse.cfg.Validate(); (err == nil) != cse.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, cse.ok)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Config: baseCfg(3), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Proc(0)
	if _, err := p.Submit(nil, mid.DepList{{Proc: 0, Seq: 1}}); err == nil {
		t.Error("own-sequence explicit dep must be rejected")
	}
	if _, err := p.Submit(nil, mid.DepList{{Proc: 1, Seq: 5}}); err == nil {
		t.Error("dep on unprocessed message must be rejected")
	}
	if _, err := p.Submit(nil, mid.DepList{{}}); err == nil {
		t.Error("zero dep must be rejected")
	}
	id, err := p.Submit([]byte("ok"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != (mid.MID{Proc: 0, Seq: 1}) {
		t.Errorf("first MID = %v", id)
	}
}

func TestSingletonGroup(t *testing.T) {
	cfg := Config{N: 1, K: 1, R: 3, SelfExclusion: true}
	c, err := NewCluster(ClusterConfig{Config: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := c.Submit(0, []byte("solo"), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Run(RunOptions{MaxRounds: 100, MinRounds: 12, StopWhenQuiescent: true, DrainSubruns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("singleton never quiescent")
	}
	if got := c.Proc(0).Processed()[0]; got != 5 {
		t.Errorf("processed %d, want 5", got)
	}
	if h := c.Proc(0).HistoryLen(); h != 0 {
		t.Errorf("history %d after drain, want 0 (self-stability)", h)
	}
}
