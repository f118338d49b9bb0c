package rt

import (
	"context"
	"fmt"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// published is what a member's series say of one group's process, and what
// the process says of itself: its counts and its accessors' gauges, by
// series name. ownStable is the process's own stability watermark.
type published struct {
	counters, gauges map[string]int64
	ownStable        int64
}

// processCounts are the series publish advances from the process, and the
// count each one reads: a Stats counter or the processed vector's sum.
var processCounts = map[string]func(*core.Process) int{
	"core_subrun":                   func(p *core.Process) int { return p.Stats.Subruns },
	"rt_early_subruns_total":        func(p *core.Process) int { return p.Stats.EarlySubruns },
	"rt_eager_broadcasts_total":     func(p *core.Process) int { return p.Stats.EagerBroadcasts },
	"core_discards_total":           func(p *core.Process) int { return p.Stats.Discarded },
	"core_fast_forwards_total":      func(p *core.Process) int { return p.Stats.FastForwards },
	"core_view_changes_total":       func(p *core.Process) int { return p.Stats.ViewChanges },
	"core_crash_declarations_total": func(p *core.Process) int { return p.Stats.CrashDeclarations },
	"rt_decisions_total":            func(p *core.Process) int { return p.Stats.DecisionsApplied },
	"core_joins_total":              func(p *core.Process) int { return p.Stats.Joins },
	"rt_processed_total":            func(p *core.Process) int { return int(p.Processed().Sum()) },
}

// gaugeAccessors are the series publish sets from the process's accessors.
var gaugeAccessors = map[string]func(*core.Process) int64{
	"core_coordinator": func(p *core.Process) int64 { return int64(p.CurrentCoordinator()) },
	"core_alive_count": func(p *core.Process) int64 { return int64(p.View().AliveCount()) },
	"core_history_len": func(p *core.Process) int64 { return int64(p.HistoryLen()) },
	"core_waiting_len": func(p *core.Process) int64 { return int64(p.WaitingLen()) },
	"core_pending_len": func(p *core.Process) int64 { return int64(p.PendingSubmissions()) },
	"core_stable_sum":  func(p *core.Process) int64 { return int64(p.StableTo().Sum()) },
	"core_decision_subrun": func(p *core.Process) int64 {
		clock, _ := core.SplitSubrun(p.DecisionSubrun())
		return clock
	},
	"core_joining": func(p *core.Process) int64 {
		if p.Joining() {
			return 1
		}
		return 0
	},
}

// decisionLatencies and submitToStable count the samples of two histograms
// among a member's series.
const (
	decisionLatencies = "rt_decision_latency_seconds_count"
	submitToStable    = "topics_submit_to_stable_seconds_count"
)

// readPublished samples member i's group-0 series and its process together,
// on the member's loop: nothing runs between the publish that ended the last
// event and the sample, so the two must agree exactly.
func readPublished(t *testing.T, ctx context.Context, reg *obs.Registry, m *Member) (series, proc published) {
	t.Helper()
	series = published{counters: map[string]int64{}, gauges: map[string]int64{}}
	proc = published{counters: map[string]int64{}, gauges: map[string]int64{}}
	i := int(m.ID())
	err := m.Snapshot(ctx, 0, func(p *core.Process) {
		for name, count := range processCounts {
			if name == "core_subrun" {
				series.counters[name] = nodeGauge(reg, name, i)
			} else {
				series.counters[name] = nodeCounter(reg, name, i)
			}
			proc.counters[name] = int64(count(p))
		}
		for name, acc := range gaugeAccessors {
			series.gauges[name] = nodeGauge(reg, name, i)
			proc.gauges[name] = acc(p)
		}
		l := func(name string) string { return obs.Labeled(name, "node", fmt.Sprint(i), "group", "0") }
		series.counters[decisionLatencies] = reg.Histogram(l("rt_decision_latency_seconds"), nil).Count()
		series.counters[submitToStable] = reg.Histogram(l("topics_submit_to_stable_seconds"), nil).Count()
		proc.ownStable = int64(p.StableTo()[p.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	return series, proc
}

// TestPublishedSeriesReadTheProcess: every count and gauge a member publishes
// is its Process's own, through a crash and a Mesh.Restart. The survivors'
// counters equal their process's counts and their gauges its accessors; the
// restarted member's gauges read its new incarnation, and its counters carry
// on from where the old one left them — the old incarnation's count plus the
// new one's. No counter read along the way ever goes down, every applied
// decision is one rt_decision_latency_seconds sample, and every own message
// a survivor's stability watermark covers is one
// topics_submit_to_stable_seconds sample.
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
	// read samples member i, failing on any counter below its last reading.
	highest := make([]map[string]int64, n)
	read := func(i mid.ProcID) (series, proc published) {
		t.Helper()
		series, proc = readPublished(t, ctx, reg, mesh.Node(i))
		if highest[i] == nil {
			highest[i] = map[string]int64{}
		}
		for name, v := range series.counters {
			if v < highest[i][name] {
				t.Errorf("member %d: %s went down: %d, then %d", i, name, highest[i][name], v)
			}
			highest[i][name] = v
		}
		return series, proc
	}
	readAll := func() {
		for i := mid.ProcID(0); i < n; i++ {
			read(i)
		}
	}

	for i := mid.ProcID(0); i < n; i++ {
		send(i, "warm")
	}
	mesh.Node(victim).Kill()
	waitFor(t, ctx, 20*time.Second, "survivors never excluded the victim", func() bool {
		for i := mid.ProcID(0); i < victim; i++ {
			send(i, "drive")
		}
		readAll()
		alive, _ := viewOf(0, victim)
		return !alive
	})
	before, _ := read(victim)

	if err := mesh.Restart(ctx, victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, 30*time.Second, "restarted member never rejoined every view", func() bool {
		for i := mid.ProcID(0); i < victim; i++ {
			send(i, "drive")
		}
		readAll()
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
			series, _ := read(i)
			if series.gauges["core_history_len"] != 0 || series.gauges["core_pending_len"] != 0 {
				return false
			}
		}
		return true
	})

	for i := mid.ProcID(0); i < n; i++ {
		series, proc := read(i)
		for name, want := range proc.gauges {
			if got := series.gauges[name]; got != want {
				t.Errorf("member %d: %s = %d, its process says %d", i, name, got, want)
			}
		}
		for name, want := range proc.counters {
			if i == victim {
				want += before.counters[name]
			}
			if got := series.counters[name]; got != want {
				t.Errorf("member %d: %s = %d, want %d", i, name, got, want)
			}
		}
		if got, want := series.counters[decisionLatencies], series.counters["rt_decisions_total"]; got != want {
			t.Errorf("member %d: %d rt_decision_latency_seconds samples for %d decisions", i, got, want)
		}
		if got := series.counters[submitToStable]; i != victim && got != proc.ownStable {
			t.Errorf("member %d: %d topics_submit_to_stable_seconds samples for %d own messages stable", i, got, proc.ownStable)
		}
	}
	survivor, _ := read(0)
	for _, name := range []string{"core_view_changes_total", "core_crash_declarations_total", "rt_eager_broadcasts_total", "core_subrun", "rt_decisions_total", "rt_processed_total"} {
		if survivor.counters[name] == 0 {
			t.Errorf("member 0: %s never moved: the test drove nothing it checks", name)
		}
	}
	if back, _ := read(victim); back.counters["core_joins_total"] != 1 {
		t.Errorf("member %d: core_joins_total = %d after one rejoin", victim, back.counters["core_joins_total"])
	}
}

// TestPublishAllocFree: publishing a process's counts and gauges after an
// event allocates nothing — with a fresh incarnation's rebaseline, counters
// that moved, a subrun's stamp and an own submission settled on every call.
// Each process is a one-member group that has made its first message
// stable.
func TestPublishAllocFree(t *testing.T) {
	o := newNodeObs(obs.New(), 0, 1, 0)
	var procs [2]*core.Process
	for i := range procs {
		p, err := core.NewProcess(0, core.Config{N: 1, K: 3, R: 8}, nopTransport{}, core.Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Submit([]byte("x"), nil); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2*(i+2); r++ {
			p.StartRound(r)
		}
		if p.StableTo()[0] == 0 || p.Stats.DecisionsApplied == 0 {
			t.Fatalf("process %d never decided its message stable", i)
		}
		procs[i] = p
	}
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p := procs[k%2] // a swap every call: rebaseline, deltas, stamp
		o.Submitted(p, mid.MID{Seq: 1})
		o.publish(p, k)
		k++
	})
	if allocs != 0 {
		t.Fatalf("publish: %v allocs/op, want 0", allocs)
	}
	if o.subrunG.Value() == 0 || o.subrunStart.IsZero() {
		t.Fatal("publish never counted or stamped a subrun")
	}
	if got := o.submitStable.Count(); got < 1000 {
		t.Fatalf("%d submit→stable samples over 1000 settled submissions", got)
	}
	if o.decisionLat.Count() != o.decisions.Value() || o.decisions.Value() == 0 {
		t.Fatalf("%d decision latency samples for %d decisions", o.decisionLat.Count(), o.decisions.Value())
	}
}
