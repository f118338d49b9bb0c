package core

import (
	"math/rand"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/group"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// TestRandomizedFailureSchedules runs many small groups under randomized
// crash + omission schedules within the resilience assumptions and asserts
// the URCGC safety clauses on every run:
//
//   - Uniform Atomicity (survivors): all active processes end with
//     identical processed vectors.
//   - Uniform Ordering: each log respects per-sequence contiguity;
//     cross-sequence causal order is enforced by the tracker, which panics
//     on violation, so merely completing the run checks it.
//   - View agreement: active processes agree the crashed are crashed once
//     quiescent.
//   - Discard consistency: a message processed by any active process is
//     condemned at no active process.
func TestRandomizedFailureSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(5)
		perProc := 5 + rng.Intn(10)
		cfg := Config{N: n, K: 3, R: 8, SelfExclusion: true}

		// At most (n-1)/2 crashes, spread over the early run; a mild global
		// omission rate stays within the per-subrun resilience with high
		// probability.
		var inj faultrt.Multi
		crashes := rng.Intn(group.Resilience(n) + 1)
		crashedAt := map[mid.ProcID]sim.Time{}
		for len(crashedAt) < crashes {
			p := mid.ProcID(rng.Intn(n))
			if _, dup := crashedAt[p]; dup {
				continue
			}
			at := sim.Time(rng.Int63n(int64(20 * sim.TicksPerRTD)))
			crashedAt[p] = at
			inj = append(inj, faultrt.CrashAt{Proc: p, At: at.Duration()})
		}
		if rng.Intn(2) == 0 {
			inj = append(inj, faultrt.During{
				From:  0,
				To:    (sim.Time(10+rng.Intn(20)) * sim.TicksPerRTD).Duration(),
				Inner: faultrt.NewDropRate(0.01+0.02*rng.Float64(), faultrt.AtSend, rng.Int63()),
			})
		}

		c, err := NewCluster(ClusterConfig{Config: cfg, Seed: rng.Int63(), Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(RunOptions{
			MaxRounds:         1200,
			MinRounds:         2 * 2 * perProc,
			OnRound:           steadyWorkload(c, 2, perProc),
			StopWhenQuiescent: true,
			DrainSubruns:      4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.QuiescentAtRound < 0 {
			t.Fatalf("trial %d (n=%d crashes=%d): never quiescent; active=%v left=%v",
				trial, n, crashes, c.ActiveSet(), c.Left)
		}

		checkUniformity(t, c)
		checkCausalOrder(t, c)

		active := c.ActiveSet()
		if len(active) == 0 {
			continue // everything died; nothing to compare
		}
		// View agreement on real crashes — but only those that took effect
		// long enough (2K+2 subruns) before the run ended for detection to
		// have completed.
		detectionWindow := sim.Time(2*cfg.K+2) * sim.TicksPerSubrun
		for _, p := range active {
			for q, at := range crashedAt {
				if at+detectionWindow > res.End {
					continue
				}
				if c.Proc(p).View().Alive(q) {
					t.Errorf("trial %d: proc %d still believes crashed %d (at %d, end %d) alive", trial, p, q, at, res.End)
				}
			}
		}
		// Discard consistency: nothing processed anywhere active may be
		// condemned anywhere active. Equal vectors + per-process condemned
		// suffixes beyond the processed point make this mostly structural;
		// check via the discard logs against the common processed vector.
		ref := c.Proc(active[0]).Processed()
		for _, p := range active {
			for _, id := range c.DiscardLog[p] {
				if ref[id.Proc] >= id.Seq {
					t.Errorf("trial %d: %v discarded at %d but processed by the group", trial, id, p)
				}
			}
		}
	}
}

// TestResilienceBoundCrashBurst crashes exactly t = (n-1)/2 processes in the
// same subrun — the paper's worst admissible case — and checks the group
// still converges and cleans history.
func TestResilienceBoundCrashBurst(t *testing.T) {
	n := 9 // t = 4
	cfg := Config{N: n, K: 3, R: 8, SelfExclusion: true}
	var inj faultrt.Multi
	for i := 0; i < group.Resilience(n); i++ {
		inj = append(inj, faultrt.CrashAt{Proc: mid.ProcID(2*i + 1), At: (sim.StartOfSubrun(4) + sim.Time(i*10)).Duration()})
	}
	c, err := NewCluster(ClusterConfig{Config: cfg, Seed: 77, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	perProc := 8
	res, err := c.Run(RunOptions{
		MaxRounds: 800, MinRounds: 2 * 2 * perProc,
		OnRound:           steadyWorkload(c, 2, perProc),
		StopWhenQuiescent: true, DrainSubruns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatalf("never quiescent; left=%v", c.Left)
	}
	checkUniformity(t, c)
	if len(c.ActiveSet()) != n-group.Resilience(n) {
		t.Errorf("active = %v", c.ActiveSet())
	}
	for _, p := range c.ActiveSet() {
		if h := c.Proc(p).HistoryLen(); h > 2*n {
			t.Errorf("proc %d history %d never cleaned after burst", p, h)
		}
	}
}

// TestBackToBackCoordinatorCrashes kills two consecutive coordinators right
// at their subruns (f = 2) and verifies decisions keep chaining: the f
// penalty delays but never blocks the agreement (Figure 5's mechanism).
func TestBackToBackCoordinatorCrashes(t *testing.T) {
	n := 6
	cfg := Config{N: n, K: 3, R: 8, SelfExclusion: true}
	// Coordinators rotate 0,1,2,...; kill coordinators of subruns 3 and 4
	// just before their decision phases.
	inj := faultrt.Multi{
		faultrt.CrashAt{Proc: 3, At: (sim.StartOfSubrun(3) + sim.TicksPerRound - 1).Duration()},
		faultrt.CrashAt{Proc: 4, At: (sim.StartOfSubrun(4) + sim.TicksPerRound - 1).Duration()},
	}
	c, err := NewCluster(ClusterConfig{Config: cfg, Seed: 3, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	perProc := 10
	res, err := c.Run(RunOptions{
		MaxRounds: 800, MinRounds: 2 * 2 * perProc,
		OnRound:           steadyWorkload(c, 2, perProc),
		StopWhenQuiescent: true, DrainSubruns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatalf("never quiescent; left=%v", c.Left)
	}
	checkUniformity(t, c)
	for _, p := range c.ActiveSet() {
		v := c.Proc(p).View()
		if v.Alive(3) || v.Alive(4) {
			t.Errorf("proc %d has stale view %v", p, v)
		}
		if h := c.Proc(p).HistoryLen(); h > 2*n {
			t.Errorf("proc %d history %d not cleaned", p, h)
		}
	}
	// No survivor should have self-excluded: the decision chain must have
	// carried the silence counters across the dead coordinators.
	for p, r := range c.Left {
		if !c.Crashed(p) {
			t.Errorf("survivor %d left (%v)", p, r)
		}
	}
}
