package chaos

import (
	"context"
	"os"
	"testing"
	"time"

	"urcgc/internal/obs"
)

// assessRolling asserts the rolling-restart acceptance criteria.
func assessRolling(t *testing.T, rep *Report, n int) {
	t.Helper()
	assessAudit(t, rep)
	if len(rep.Restarted) != n || len(rep.Rejoined) != n {
		t.Errorf("plan cycled %d and rejoined %d of %d members", len(rep.Restarted), len(rep.Rejoined), n)
	}
	if !rep.ViewsAgree() {
		t.Error("not every member ended running, joined and with a full view")
	}
}

// TestRollingRestartSmoke is the CI gate for dynamic membership: a small
// group, every member kill -9'd and rejoined in turn under 1/100 send
// omissions and continuous load, audited for uniform atomicity and uniform
// ordering across incarnations. Fast enough for -race on a CI runner.
func TestRollingRestartSmoke(t *testing.T) {
	cfg := Config{Scenario: RollingRestart(), N: 4, Logf: t.Logf}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assessRolling(t, rep, cfg.N)
}

// TestRollingRestartSoak is the acceptance shape: n=5 hosting two groups,
// with slower rounds, generous budgets and the health monitor on. Gated
// behind URCGC_CHAOS_SOAK=1 like TestLongSoak.
func TestRollingRestartSoak(t *testing.T) {
	if os.Getenv("URCGC_CHAOS_SOAK") == "" {
		t.Skip("set URCGC_CHAOS_SOAK=1 to run the rolling-restart acceptance soak")
	}
	cfg := Config{
		Scenario: RollingRestart(),
		N:        5,
		Groups:   2,
		Round:    4 * time.Millisecond,
		Settle:   30 * time.Second,
		Metrics:  obs.New(),
		Logf:     t.Logf,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assessRolling(t, rep, cfg.N)
}
