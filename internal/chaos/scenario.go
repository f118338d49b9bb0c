package chaos

import (
	"cmp"
	"fmt"
	"sync/atomic"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

// Scenario is a fault plan the harness can drive: Seeded, GroupPartition or
// RollingRestart. The set is closed — everything else about a soak (the
// checkers, the load, the captures, the health monitor, the settle and the
// audit) is the harness's and the same for all three.
type Scenario interface {
	fmt.Stringer
	// protocol fills the scenario's defaults into cfg's zero fields and
	// returns the protocol configuration its fault plan needs.
	protocol(cfg *Config) core.Config
	// injector is the adversary the scenario puts at the link boundary.
	injector(s *soak) faultrt.Injector
	// drive executes the fault plan against the running, loaded cluster and
	// returns once it has healed (or the run was aborted).
	drive(s *soak)
}

// Seeded is the default scenario: a faultrt.Schedule expanded from
// Config.Seed — one crash, one healed partition, 1/100 omission bursts,
// background reordering and duplication — over Config.Duration. Defaults:
// N 5, K 4, R 8, Duration 2s, Settle = Duration.
func Seeded() Scenario { return seeded{} }

type seeded struct{}

func (seeded) String() string { return "seeded" }

func (seeded) protocol(cfg *Config) core.Config {
	cfg.N, cfg.K, cfg.R = cmp.Or(cfg.N, 5), cmp.Or(cfg.K, 4), cmp.Or(cfg.R, 8)
	cfg.Duration = cmp.Or(cfg.Duration, 2*time.Second)
	cfg.Settle = cmp.Or(cfg.Settle, cfg.Duration)
	return core.Config{N: cfg.N, K: cfg.K, R: cfg.R, BatchMax: cfg.BatchMax}
}

func (seeded) injector(s *soak) faultrt.Injector {
	s.rep.Schedule = faultrt.NewSchedule(s.cfg.Seed, s.cfg.N, s.cfg.Duration, s.cfg.Round, s.cfg.K)
	s.cfg.Logf("%s", s.rep.Schedule)
	return s.rep.Schedule.Injector()
}

func (seeded) drive(s *soak) { s.hold(s.cfg.Duration) }

// GroupPartition is the fault-isolation scenario: after a warm-up to an
// all-healthy baseline, group target's frames to and from member victim are
// dropped for Config.Duration while every other group's traffic — same
// members, same link, same shard loops — is untouched. The partitioned group
// must degrade on the health rules and recover after the heal; a fault
// confined to one group has to read as that group's problem, not as
// whole-node noise. Both arguments are taken literally: group 0 and member 0
// are as good a pair as any. Defaults: N 3, Groups 3, Duration 0.9s, Settle
// 10s, and a registry of its own when Config.Metrics is nil (the verdicts are
// the point).
func GroupPartition(target uint32, victim mid.ProcID) Scenario {
	return &groupPartition{target: target, victim: victim}
}

type groupPartition struct {
	target uint32
	victim mid.ProcID
	on     atomic.Bool
}

func (p *groupPartition) String() string {
	return fmt.Sprintf("group-partition(group %d, p%d)", p.target, p.victim)
}

// protocol runs K far above the subruns the cut can span — 255, the most a
// decision's counters hold, against at most 225 in the default 0.9 s cut,
// since a lockstep subrun lasts at least two 2 ms rounds — so neither side
// declares the other crashed and the cut heals as an omission burst;
// SelfExclusion is off so nobody leaves while its token is cut off.
func (p *groupPartition) protocol(cfg *Config) core.Config {
	cfg.N, cfg.Groups = cmp.Or(cfg.N, 3), cmp.Or(cfg.Groups, 3)
	cfg.Duration = cmp.Or(cfg.Duration, 900*time.Millisecond)
	cfg.Settle = cmp.Or(cfg.Settle, 10*time.Second)
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	return core.Config{N: cfg.N, K: 255, R: 512, BatchMax: core.DefaultBatchMax}
}

// cuts is the link's verdict on one frame: lost iff the cut is on, the frame
// is the target group's and one end of it is the victim.
func (p *groupPartition) cuts(group uint32, src, dst mid.ProcID) bool {
	return p.on.Load() && group == p.target && (src == p.victim || dst == p.victim)
}

func (p *groupPartition) injector(*soak) faultrt.Injector { return faultrt.Cut(p.cuts) }

func (p *groupPartition) drive(s *soak) {
	// Baseline: all verdicts healthy with confirmed traffic in every group,
	// so the degradation to come is attributable to the cut; what a slow
	// start tripped is forgotten.
	s.rep.HealthyBeforeFault = s.phase(func() bool {
		for g := range s.confirmed {
			if s.confirmed[g].Load() == 0 {
				return false
			}
		}
		return s.healthy()
	})
	s.mon.reset()
	s.cfg.Logf("baseline healthy=%v; cutting group %d from p%d for %v", s.rep.HealthyBeforeFault, p.target, p.victim, s.cfg.Duration)
	p.on.Store(true)
	s.hold(s.cfg.Duration)
	p.on.Store(false)
}

// RollingRestart cycles every member through kill -9 and rejoin, one at a
// time, under a constant 1/100 send omission and continuous load: kill, wait
// for the survivors to declare the crash in every group, restart it as a
// joiner, wait until every group re-admitted it and every view holds it alive
// again, then move on. The checkers audit every incarnation. Defaults: N 5,
// K 4, R 12 (self-exclusion is on, which requires R > 2K), Settle 10s.
func RollingRestart() Scenario { return rolling{} }

type rolling struct{}

func (rolling) String() string { return "rolling-restart" }

func (rolling) protocol(cfg *Config) core.Config {
	cfg.N, cfg.K, cfg.R = cmp.Or(cfg.N, 5), cmp.Or(cfg.K, 4), cmp.Or(cfg.R, 12)
	cfg.Settle = cmp.Or(cfg.Settle, 10*time.Second)
	return core.Config{N: cfg.N, K: cfg.K, R: cfg.R, SelfExclusion: true, BatchMax: cfg.BatchMax}
}

func (rolling) injector(*soak) faultrt.Injector {
	return &faultrt.DropEvery{N: 100, Side: faultrt.AtSend}
}

func (rolling) drive(s *soak) {
	everyone := make([]mid.ProcID, s.cfg.N)
	for i := range everyone {
		everyone[i] = mid.ProcID(i)
	}
	// everyGroup reports whether ok holds in each group in turn.
	everyGroup := func(ok func(g uint32) bool) bool {
		for g := uint32(0); g < uint32(s.cfg.Groups); g++ {
			if !ok(g) {
				return false
			}
		}
		return true
	}
	// viewsHold reports whether every listed member's view, in every group,
	// has the victim alive (or not).
	viewsHold := func(at []mid.ProcID, victim mid.ProcID, alive bool) bool {
		return everyGroup(func(g uint32) bool {
			return s.everyStatus(at, g, func(st rt.Status) bool { return st.Alive[victim] == alive })
		})
	}
	for _, victim := range everyone {
		if s.ctx.Err() != nil {
			return
		}
		s.rep.Restarted = append(s.rep.Restarted, victim)
		s.cfg.Logf("rolling: kill -9 member %d", victim)
		s.mesh.Node(victim).Kill()
		others := append(append([]mid.ProcID(nil), everyone[:victim]...), everyone[victim+1:]...)
		if !s.phase(func() bool { return viewsHold(others, victim, false) }) {
			s.cfg.Logf("rolling: survivors never declared member %d crashed", victim)
			return
		}
		s.cfg.Logf("rolling: restart member %d as joiner", victim)
		if err := s.mesh.Restart(s.ctx, victim); err != nil {
			s.cfg.Logf("rolling: restart of member %d failed: %v", victim, err)
			return
		}
		// Only a restarted incarnation counts a join: the group re-admitted it.
		admitted := s.phase(func() bool {
			return everyGroup(func(g uint32) bool {
				return s.everyStatus([]mid.ProcID{victim}, g, func(st rt.Status) bool { return st.Stats.Joins > 0 })
			})
		})
		if !admitted || !s.phase(func() bool { return viewsHold(everyone, victim, true) }) {
			s.cfg.Logf("rolling: member %d never rejoined every group and view (admitted=%v)", victim, admitted)
			return
		}
		s.rep.Rejoined = append(s.rep.Rejoined, victim)
		s.cfg.Logf("rolling: member %d back in every view", victim)
	}
}
