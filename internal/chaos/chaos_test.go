package chaos

import (
	"context"
	"os"
	"testing"
	"time"

	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/obs"
)

// TestSmokeSoak is the CI chaos gate: a short seeded soak with one crash,
// one healed partition, omission bursts and background reordering and
// duplication, audited for uniform atomicity and uniform ordering. It must
// stay fast enough for -race on a CI runner.
func TestSmokeSoak(t *testing.T) {
	reg := obs.New()
	cfg := Config{
		Seed:          41,
		Duration:      1500 * time.Millisecond,
		CaptureFrames: 1 << 15,
		Metrics:       reg,
		Lifecycle: &lifecycle.Options{
			SlowThreshold: 250 * time.Millisecond,
		},
		Logf: t.Logf,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assessSoak(t, rep, reg)
}

// TestSmokeSoakBatched repeats the CI chaos gate with the batched hot path
// on — coalescing sender plus multi-message DataBatch frames — and holds
// it to the same invariant audit: batching must not cost Uniform Atomicity
// or Uniform Ordering under crashes, partitions, omissions, reordering and
// duplication — audited per group, with two groups sharing the link.
func TestSmokeSoakBatched(t *testing.T) {
	reg := obs.New()
	cfg := Config{
		Seed:        41,
		Groups:      2,
		Duration:    1500 * time.Millisecond,
		BatchWindow: 2 * time.Millisecond,
		BatchMax:    16,
		Metrics:     reg,
		Lifecycle: &lifecycle.Options{
			SlowThreshold: 250 * time.Millisecond,
		},
		Logf: t.Logf,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assessSoak(t, rep, reg)
}

// TestLongSoak is the acceptance soak: 60 seconds of faults. Gated behind
// URCGC_CHAOS_SOAK=1 so the ordinary suite stays fast; the chaos CLI runs
// the same shape interactively.
func TestLongSoak(t *testing.T) {
	if os.Getenv("URCGC_CHAOS_SOAK") == "" {
		t.Skip("set URCGC_CHAOS_SOAK=1 to run the 60s acceptance soak")
	}
	reg := obs.New()
	cfg := Config{
		Seed:     1,
		Duration: 60 * time.Second,
		Settle:   10 * time.Second,
		Metrics:  reg,
		Logf:     t.Logf,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assessSoak(t, rep, reg)
}

// assessSoak asserts the soak acceptance criteria on a finished report.
func assessSoak(t *testing.T, rep *Report, reg *obs.Registry) {
	t.Helper()
	assessAudit(t, rep)
	if len(rep.Killed) != 1 || rep.Killed[0] != rep.Schedule.CrashProc {
		t.Errorf("killed = %v, want exactly the scheduled crash of p%d",
			rep.Killed, rep.Schedule.CrashProc)
	}
	for g, gr := range rep.Groups {
		if len(gr.Survivors) != rep.Schedule.N-1 || len(gr.Left) != 0 {
			t.Errorf("group %d: survivors = %v, left = %v: the healed partition must not evict anyone",
				g, gr.Survivors, gr.Left)
		}
		for _, p := range gr.Survivors {
			if gr.Processed[p] == 0 {
				t.Errorf("group %d: survivor p%d processed nothing", g, p)
			}
		}
	}
	// The health layer must have noticed the adversary — at minimum the
	// survivors' exclusion of the scheduled crash — and every survivor's
	// verdict must return to healthy once the faults clear.
	if !rep.HealthMonitored {
		t.Error("health was not monitored despite a metrics registry")
	}
	if len(rep.DegradedGroups()) == 0 {
		t.Error("no member's health ever degraded during the fault phase")
	}
	if !rep.HealthRecovered {
		t.Error("survivors did not return to healthy after the faults")
	}
	// Every scheduled fault kind must have fired, and the per-kind
	// counters must be visible on the metrics registry.
	snap := reg.Snapshot()
	for _, k := range faultrt.Kinds() {
		if rep.Injected[k.String()] == 0 {
			t.Errorf("no %s fault was ever injected", k)
		}
		name := obs.Labeled("faultrt_injected_total", "kind", k.String())
		if snap[name] == 0 {
			t.Errorf("%s not exported on /metrics", name)
		}
	}
}

// assessAudit asserts what every scenario owes: Definition 3.2 upheld and
// the survivors converged, in every group, with traffic confirmed.
func assessAudit(t *testing.T, rep *Report) {
	t.Helper()
	t.Logf("\n%s", rep)
	for g, gr := range rep.Groups {
		for _, v := range gr.Violations {
			t.Errorf("group %d: invariant violated: %v", g, v)
		}
		if !gr.Converged {
			t.Errorf("group %d: survivors did not converge inside the settle window", g)
		}
		if gr.Confirmed == 0 {
			t.Errorf("group %d: no send ever confirmed under faults", g)
		}
	}
	// Preserve the evidence: with URCGC_CAPTURE_DIR set (CI exports it), a
	// violating soak dumps every member's frame capture for offline replay
	// with urcgc-ctl replay.
	if dir := os.Getenv("URCGC_CAPTURE_DIR"); dir != "" && !rep.Ok() {
		if paths, err := rep.DumpCaptures(dir); err != nil {
			t.Logf("capture dump failed: %v", err)
		} else if len(paths) > 0 {
			t.Logf("capture dumps written: %v — replay with: urcgc-ctl replay %s", paths, dir)
		}
	}
}

// TestSameSeedSamePlan pins the run-level determinism contract: two soaks
// with the same seed execute the identical fault plan.
func TestSameSeedSamePlan(t *testing.T) {
	a, err := Run(context.Background(), Config{Seed: 7, Duration: 200 * time.Millisecond, Settle: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), Config{Seed: 7, Duration: 200 * time.Millisecond, Settle: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule.String() != b.Schedule.String() {
		t.Fatalf("same seed, different plans:\n%s\nvs\n%s", a.Schedule, b.Schedule)
	}
	if c, _ := Run(context.Background(), Config{Seed: 8, Duration: 200 * time.Millisecond, Settle: 400 * time.Millisecond}); c.Schedule.String() == a.Schedule.String() {
		t.Error("a different seed should produce a different plan")
	}
}
