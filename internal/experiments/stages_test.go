package experiments

import (
	"strings"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// TestStagesBreakdown feeds the stage collector by hand on a clock of its own
// and checks each stage of the table, then that a crashed process drops out
// of the uniform condition.
func TestStagesBreakdown(t *testing.T) {
	const rtd = sim.TicksPerRTD
	var at sim.Time
	now := func() sim.Time { return at }
	m := &causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}
	st := newStages()
	p0, p1 := st.observe(now, 0), st.observe(now, 1)
	p0.OnGenerate(m)
	at = 1 * rtd
	p0.OnBroadcast(m)
	p0.OnProcess(m) // origin processes at broadcast
	at = 2 * rtd
	p1.OnWait(m, mid.DepList{{Proc: 0, Seq: 0}})
	at = 3 * rtd
	p1.OnProcess(m) // waited one RTD at p1; uniform at 3 RTD

	b := st.breakdown([]mid.ProcID{0, 1})
	if b.Messages != 1 || b.UniformCount != 1 || b.WaitCount != 1 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.MeanEmitToBroadcast != 1 || b.MeanEmitToFirstProcess != 1 {
		t.Fatalf("emit stages = %+v", b)
	}
	if b.MeanEmitToUniform != 3 || b.MeanWait != 1 {
		t.Fatalf("uniform/wait = %+v", b)
	}
	if !strings.Contains(b.Render(), "emit -> uniform") {
		t.Fatal("render missing stage row")
	}

	// A crashed process drops out of the uniform condition.
	st2 := newStages()
	at = 0
	p0 = st2.observe(now, 0)
	p0.OnGenerate(m)
	at = 1 * rtd
	p0.OnBroadcast(m)
	p0.OnProcess(m)
	b2 := st2.breakdown([]mid.ProcID{0}) // p1 crashed at 2 RTD
	if b2.UniformCount != 1 || b2.MeanEmitToUniform != 1 {
		t.Fatalf("survivor-only uniform = %+v", b2)
	}
}
