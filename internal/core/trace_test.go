package core

import (
	"math/rand"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/trace"
)

// TestTraceVerifierOnFaultyRuns runs randomized faulty scenarios with the
// independent offline verifier attached: the trace package reconstructs the
// causal relation from the recorded labels and re-checks every URCGC clause
// without trusting the protocol's own bookkeeping.
func TestTraceVerifierOnFaultyRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(4)
		cfg := Config{N: n, K: 3, R: 8, SelfExclusion: true}
		var inj faultrt.Multi
		if rng.Intn(2) == 0 {
			inj = append(inj, faultrt.CrashAt{
				Proc: mid.ProcID(rng.Intn(n)),
				At:   sim.Time(rng.Int63n(int64(15 * sim.TicksPerRTD))).Duration(),
			})
		}
		inj = append(inj, faultrt.During{
			From: 0, To: (15 * sim.TicksPerRTD).Duration(),
			Inner: faultrt.NewDropRate(0.02, faultrt.AtSend, rng.Int63()),
		})
		c, err := NewCluster(ClusterConfig{Config: cfg, Seed: rng.Int63(), Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(n)
		c.Trace = rec
		perProc := 8
		res, err := c.Run(RunOptions{
			MaxRounds: 1000, MinRounds: 2 * 2 * perProc,
			OnRound:           steadyWorkload(c, 2, perProc),
			StopWhenQuiescent: true, DrainSubruns: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.QuiescentAtRound < 0 {
			t.Fatalf("trial %d: never quiescent; left=%v", trial, c.Left)
		}
		if violations := rec.Verify(); len(violations) != 0 {
			t.Fatalf("trial %d: URCGC clauses violated:\n%v\nlog:\n%s",
				trial, violations, rec.Dump())
		}
	}
}
