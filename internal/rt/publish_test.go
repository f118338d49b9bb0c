package rt

import (
	"context"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// published is what a member's series say of one group's process, and what
// the process says of itself: its Stats counters and its accessors' gauges,
// by series name.
type published struct {
	counters, gauges map[string]int64
}

// counterStats are the series publish advances from p.Stats, and the
// counter each one reads.
var counterStats = map[string]func(*core.Stats) int{
	"core_subrun":                   func(s *core.Stats) int { return s.Subruns },
	"rt_early_subruns_total":        func(s *core.Stats) int { return s.EarlySubruns },
	"rt_eager_broadcasts_total":     func(s *core.Stats) int { return s.EagerBroadcasts },
	"core_discards_total":           func(s *core.Stats) int { return s.Discarded },
	"core_fast_forwards_total":      func(s *core.Stats) int { return s.FastForwards },
	"core_view_changes_total":       func(s *core.Stats) int { return s.ViewChanges },
	"core_crash_declarations_total": func(s *core.Stats) int { return s.CrashDeclarations },
}

// gaugeAccessors are the series publish sets from the process's accessors.
var gaugeAccessors = map[string]func(*core.Process) int64{
	"core_coordinator": func(p *core.Process) int64 { return int64(p.CurrentCoordinator()) },
	"core_alive_count": func(p *core.Process) int64 { return int64(p.View().AliveCount()) },
	"core_history_len": func(p *core.Process) int64 { return int64(p.HistoryLen()) },
	"core_waiting_len": func(p *core.Process) int64 { return int64(p.WaitingLen()) },
	"core_pending_len": func(p *core.Process) int64 { return int64(p.PendingSubmissions()) },
	"core_stable_sum":  func(p *core.Process) int64 { return int64(p.StableTo().Sum()) },
	"core_joining": func(p *core.Process) int64 {
		if p.Joining() {
			return 1
		}
		return 0
	},
}

// readPublished samples member i's group-0 series and its process together,
// on the member's loop: nothing runs between the publish that ended the last
// event and the sample, so the two must agree exactly.
func readPublished(t *testing.T, ctx context.Context, reg *obs.Registry, m *Member) (series, proc published) {
	t.Helper()
	series = published{map[string]int64{}, map[string]int64{}}
	proc = published{map[string]int64{}, map[string]int64{}}
	i := int(m.ID())
	err := m.Snapshot(ctx, 0, func(p *core.Process) {
		for name, stat := range counterStats {
			if name == "core_subrun" {
				series.counters[name] = nodeGauge(reg, name, i)
			} else {
				series.counters[name] = nodeCounter(reg, name, i)
			}
			proc.counters[name] = int64(stat(&p.Stats))
		}
		for name, acc := range gaugeAccessors {
			series.gauges[name] = nodeGauge(reg, name, i)
			proc.gauges[name] = acc(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return series, proc
}

// TestPublishedSeriesReadTheProcess: every count and gauge a member publishes
// is its Process's own, through a crash and a Mesh.Restart. The survivors'
// counters equal their Stats and their gauges their accessors; the restarted
// member's gauges read its new incarnation, and its counters carry on from
// where the old one left them — the old incarnation's count plus the new
// one's, never below the value before the restart.
func TestPublishedSeriesReadTheProcess(t *testing.T) {
	const n, victim = 4, 3
	reg := obs.New()
	cfg := liveConfig(n)
	cfg.Metrics = reg
	mesh, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mesh.Start()
	t.Cleanup(mesh.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	send := func(i mid.ProcID, what string) {
		t.Helper()
		if _, err := mesh.Node(i).Send(ctx, 0, []byte(what), nil); err != nil {
			t.Fatal(err)
		}
	}
	viewOf := func(at, q mid.ProcID) (alive, joining bool) {
		if err := mesh.Node(at).Snapshot(ctx, 0, func(p *core.Process) {
			alive, joining = p.View().Alive(q), p.Joining()
		}); err != nil {
			t.Fatal(err)
		}
		return alive, joining
	}

	for i := mid.ProcID(0); i < n; i++ {
		send(i, "warm")
	}
	mesh.Node(victim).Kill()
	waitFor(t, ctx, 20*time.Second, "survivors never excluded the victim", func() bool {
		for i := mid.ProcID(0); i < victim; i++ {
			send(i, "drive")
		}
		alive, _ := viewOf(0, victim)
		return !alive
	})
	before, _ := readPublished(t, ctx, reg, mesh.Node(victim))

	if err := mesh.Restart(ctx, victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, 30*time.Second, "restarted member never rejoined every view", func() bool {
		for i := mid.ProcID(0); i < victim; i++ {
			send(i, "drive")
		}
		if _, joining := viewOf(victim, victim); joining {
			return false
		}
		for i := mid.ProcID(0); i < n; i++ {
			if alive, _ := viewOf(i, victim); !alive {
				return false
			}
		}
		return true
	})
	send(victim, "back")
	// Quiescence: the traffic stable everywhere and the histories cleaned.
	waitFor(t, ctx, 20*time.Second, "the group never went quiet", func() bool {
		for i := mid.ProcID(0); i < n; i++ {
			series, _ := readPublished(t, ctx, reg, mesh.Node(i))
			if series.gauges["core_history_len"] != 0 || series.gauges["core_pending_len"] != 0 {
				return false
			}
		}
		return true
	})

	for i := mid.ProcID(0); i < n; i++ {
		series, proc := readPublished(t, ctx, reg, mesh.Node(i))
		for name, want := range proc.gauges {
			if got := series.gauges[name]; got != want {
				t.Errorf("member %d: %s = %d, its process says %d", i, name, got, want)
			}
		}
		for name, want := range proc.counters {
			got := series.counters[name]
			if i == victim {
				if got < before.counters[name] {
					t.Errorf("member %d: %s went down across the restart: %d, then %d", i, name, before.counters[name], got)
				}
				want += before.counters[name]
			}
			if got != want {
				t.Errorf("member %d: %s = %d, want %d", i, name, got, want)
			}
		}
	}
	survivor, _ := readPublished(t, ctx, reg, mesh.Node(0))
	for _, name := range []string{"core_view_changes_total", "core_crash_declarations_total", "rt_eager_broadcasts_total", "core_subrun"} {
		if survivor.counters[name] == 0 {
			t.Errorf("member 0: %s never moved: the test drove nothing it checks", name)
		}
	}
}

// TestPublishAllocFree: publishing a process's counts and gauges after an
// event allocates nothing — with a fresh incarnation's rebaseline, counters
// that moved and a subrun's stamp on every call.
func TestPublishAllocFree(t *testing.T) {
	o := newNodeObs(obs.New(), 0, 3, 0)
	var procs [2]*core.Process
	for i := range procs {
		p, err := core.NewProcess(0, core.Config{N: 3, K: 3, R: 8}, nopTransport{}, core.Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Submit([]byte("x"), nil); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2*(i+1); r++ {
			p.StartRound(r)
		}
		procs[i] = p
	}
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		o.publish(procs[k%2]) // a swap every call: rebaseline, deltas, stamp
		k++
	})
	if allocs != 0 {
		t.Fatalf("publish: %v allocs/op, want 0", allocs)
	}
	if o.subrunG.Value() == 0 || o.subrunStart.IsZero() {
		t.Fatal("publish never counted or stamped a subrun")
	}
}
