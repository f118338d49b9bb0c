package chaos

import (
	"context"
	"slices"
	"testing"
	"time"

	"urcgc/internal/mid"
)

// TestSmokeSoakGroupPartition is the multi-group acceptance soak: cut one
// group's traffic to one member of a three-group cluster and require that
// exactly that group's per-group health verdict degrades and recovers,
// while the co-hosted groups on the same nodes and transport stay healthy
// for the whole run — and that every group, cut or not, passes the audit.
func TestSmokeSoakGroupPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live run")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, Config{Scenario: GroupPartition(1, 2), CaptureFrames: 1 << 12, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	assessAudit(t, rep)
	if len(rep.Groups) != 3 || len(rep.Captures) != 3 {
		t.Fatalf("%d groups audited, %d capture rings armed, want 3 and 3", len(rep.Groups), len(rep.Captures))
	}
	if !rep.HealthyBeforeFault {
		t.Fatal("cluster never reached an all-healthy baseline with traffic in every group")
	}
	if got := rep.DegradedGroups(); !slices.Equal(got, []uint32{1}) {
		t.Fatalf("groups degraded = %v, want exactly the partitioned group 1", got)
	}
	if !rep.HealthRecovered {
		t.Fatal("per-group verdicts never recovered after the heal")
	}
}

// TestGroupPartitionZeroIsAValue: group 0 (the wire-compatible single-group
// id) and member 0 are a legal pair to cut, taken literally — the predicate
// drops exactly group 0's frames to and from member 0, and only while on.
func TestGroupPartitionZeroIsAValue(t *testing.T) {
	p := GroupPartition(0, 0).(*groupPartition)
	for _, on := range []bool{false, true} {
		p.on.Store(on)
		for g := uint32(0); g < 3; g++ {
			for src := mid.ProcID(0); src < 3; src++ {
				for dst := mid.ProcID(0); dst < 3; dst++ {
					want := on && g == 0 && (src == 0 || dst == 0)
					if got := p.injector(nil).Send(g, src, dst, 0).Drop; got != want {
						t.Errorf("on=%v group %d p%d->p%d: dropped=%v, want %v", on, g, src, dst, got, want)
					}
				}
			}
		}
	}
}
