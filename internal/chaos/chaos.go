// Package chaos is the one harness that holds the live runtime to the
// paper's contract, Definition 3.2: Uniform Ordering (causal order respected
// at every member) and Uniform Atomicity (every decided message processed by
// all surviving members or none), under omissions and up to t=(n-1)/2
// crashes. It is the wall-clock counterpart of the simulator's scripted fault
// experiments. One soak is one phase skeleton over an in-process rt.Mesh
// hosting G >= 1 groups on one link:
//
//	boot (one faultrt.Checker per group, fed by every member through
//	core.Audit) -> load every (member, group) -> the Scenario drives its
//	fault plan -> heal -> settle -> audit
//
// and a Scenario is the only thing that varies: Seeded (the default: a
// seed-expanded crash, healed partition, omission bursts and background
// reordering/duplication), GroupPartition (one group cut off from one
// member, the others untouched on the same link) and RollingRestart (every
// member kill -9'd and rejoined in turn). Whatever the scenario, every group
// is audited by its own checker, every member's frames can be captured for
// offline replay, and — with a metrics registry — one per-(member, group)
// health monitor reports who degraded under the faults and whether the
// survivors recovered.
//
// Determinism contract: Seeded's fault plan is a pure function of the seed
// (Report.Schedule renders it), so a same-seed rerun faces the identical
// scripted adversary. The realized injection trace additionally depends on
// the datagram interleaving of the run, which wall-clock concurrency does
// not replay; faultrt's own tests pin trace determinism for a fixed
// consultation sequence.
package chaos

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

// Config parameterizes one soak. The zero value of every field gets a
// usable default; N, K, R, Groups, Duration and Settle default per Scenario.
type Config struct {
	// Scenario is the fault plan the soak drives (default Seeded()).
	Scenario Scenario
	// Seed selects Seeded's fault schedule; same seed, same plan.
	Seed int64
	// N is the group size.
	N int
	// Groups is how many groups (ids 0..Groups-1) share the members and the
	// link; each is loaded and audited on its own.
	Groups int
	// K is the protocol's silence threshold; Seeded keeps its partition
	// shorter than K subruns so it heals as an omission burst instead of
	// evicting half the group. GroupPartition runs at its own K.
	K int
	// R is the recovery-exhaustion threshold.
	R int
	// Round is the wall-clock round length (default 2ms). Every cadence of
	// the harness — load, polls, health sampling — is a multiple of it.
	Round time.Duration
	// Duration is how long the faults last: Seeded's schedule length,
	// GroupPartition's cut. RollingRestart is paced by the protocol instead.
	Duration time.Duration
	// Settle bounds each wait for the protocol or the health verdicts to
	// get somewhere: the warm-up, every phase of a rolling restart, the
	// post-fault convergence and the health recovery.
	Settle time.Duration
	// BatchWindow, when positive, enables the runtime's coalescing sender
	// (rt.Config.BatchWindow: the longest a window waits behind Sends in
	// flight) so the soak exercises DataBatch traffic under the fault plan.
	BatchWindow time.Duration
	// BatchMax caps the per-subrun drain when batching (0 = runtime
	// default when BatchWindow is set).
	BatchMax int
	// CaptureFrames, when positive, arms a frame flight recorder of that
	// many records on every member (internal/capture); the rings ride the
	// Report so a violating run can be dumped and replayed offline.
	CaptureFrames int
	// Inject, when non-nil, layers an extra scripted adversary onto the
	// scenario's — tests use it for targeted faults (a permanent
	// partition, say) no scenario generates.
	Inject faultrt.Injector
	// Metrics, when non-nil, receives the cluster's and the injector's
	// instruments (faultrt_injected_total{kind} among them) and turns the
	// health monitor on.
	Metrics *obs.Registry
	// Lifecycle, when non-nil, enables per-message tracing; stuck-span
	// watchdog lines name the injected fault that plausibly caused the
	// stall.
	Lifecycle *lifecycle.Options
	// Logf, when non-nil, narrates progress and carries the runtime's
	// throttled warnings.
	Logf func(format string, args ...any)
}

// Report is the outcome of one soak.
type Report struct {
	// Scenario names the fault plan that ran.
	Scenario string
	// Schedule is Seeded's seed-deterministic fault plan; nil otherwise.
	Schedule *faultrt.Schedule
	// Injected counts realized injections per fault kind.
	Injected map[string]int64
	// Sent and Confirmed count submissions and completed confirm waits over
	// every group.
	Sent, Confirmed int64
	// Killed are the members fail-stopped at the end of the run.
	Killed []mid.ProcID
	// Restarted lists the members RollingRestart killed and revived, in
	// order; Rejoined those every group re-admitted in time.
	Restarted, Rejoined []mid.ProcID
	// Groups holds each group's audit, indexed by group id.
	Groups []GroupReport
	// HealthMonitored reports whether per-(member, group) health verdicts
	// were evaluated over a flight recording (Metrics was set).
	HealthMonitored bool
	// HealthyBeforeFault reports whether a scenario that warms up first saw
	// every verdict healthy, with traffic confirmed in every group, before
	// its fault.
	HealthyBeforeFault bool
	// HealthRecovered reports whether every survivor's verdict returned to
	// healthy after the faults cleared.
	HealthRecovered bool
	// Captures holds each member's frame flight recorder when
	// Config.CaptureFrames armed one; DumpCaptures persists them.
	Captures []*capture.Ring
}

// GroupReport is one group's share of a Report.
type GroupReport struct {
	// Confirmed counts the group's completed confirm waits.
	Confirmed int64
	// Survivors are the members neither fail-stopped nor self-excluded from
	// this group.
	Survivors []mid.ProcID
	// Left maps self-excluded members to their protocol-level reason.
	Left map[mid.ProcID]core.LeaveReason
	// Processed counts processing events per member (current incarnation).
	Processed map[mid.ProcID]int
	// Converged reports whether the survivors' processed vectors became
	// equal and stopped moving inside the settle window.
	Converged bool
	// ViewsAgree reports whether, at the end, every survivor was running,
	// done joining, and held exactly the survivors alive in its view.
	ViewsAgree bool
	// Degraded maps each member whose verdict for this group went unhealthy
	// to the rules that fired.
	Degraded map[mid.ProcID][]string
	// Violations are the invariant breaches the group's checker found;
	// empty means clean.
	Violations []faultrt.Violation
}

func (r *Report) all(ok func(*GroupReport) bool) bool {
	for g := range r.Groups {
		if !ok(&r.Groups[g]) {
			return false
		}
	}
	return true
}

// Ok reports whether every group upheld both uniform properties.
func (r *Report) Ok() bool {
	return r.all(func(g *GroupReport) bool { return len(g.Violations) == 0 })
}

// Converged reports whether every group's survivors converged.
func (r *Report) Converged() bool { return r.all(func(g *GroupReport) bool { return g.Converged }) }

// ViewsAgree reports whether every group ended with settled views.
func (r *Report) ViewsAgree() bool { return r.all(func(g *GroupReport) bool { return g.ViewsAgree }) }

// DegradedGroups lists the groups in which any member's health degraded.
func (r *Report) DegradedGroups() []uint32 {
	var out []uint32
	for g := range r.Groups {
		if len(r.Groups[g].Degraded) > 0 {
			out = append(out, uint32(g))
		}
	}
	return out
}

// DumpCaptures writes every member's capture ring to dir as
// capture-node<N>.bin (the /capture binary format urcgc-ctl replay ingests),
// returning the written paths. It is a no-op without armed rings.
func (r *Report) DumpCaptures(dir string) ([]string, error) {
	var paths []string
	for _, ring := range r.Captures {
		path, err := ring.Snapshot().WriteFile(dir)
		if err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// String renders a human summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s soak: sent=%d confirmed=%d killed=%v\n", r.Scenario, r.Sent, r.Confirmed, r.Killed)
	if r.Schedule != nil {
		b.WriteString(r.Schedule.String())
	}
	if len(r.Restarted) > 0 {
		fmt.Fprintf(&b, "  %d members cycled, %d rejoined\n", len(r.Restarted), len(r.Rejoined))
	}
	violations := 0
	for g := range r.Groups {
		gr := &r.Groups[g]
		fmt.Fprintf(&b, "  group %d: confirmed=%d converged=%v views-agree=%v\n", g, gr.Confirmed, gr.Converged, gr.ViewsAgree)
		for _, p := range gr.Survivors {
			fmt.Fprintf(&b, "    survivor p%d processed %d\n", p, gr.Processed[p])
		}
		for p, reason := range gr.Left {
			fmt.Fprintf(&b, "    left p%d (%v) processed %d\n", p, reason, gr.Processed[p])
		}
		degraded := make([]string, 0, len(gr.Degraded))
		for p, rules := range gr.Degraded {
			degraded = append(degraded, fmt.Sprintf("p%d(%s)", p, strings.Join(rules, "+")))
		}
		if sort.Strings(degraded); len(degraded) > 0 {
			fmt.Fprintf(&b, "    degraded %s\n", strings.Join(degraded, " "))
		}
		for _, v := range gr.Violations {
			fmt.Fprintf(&b, "    VIOLATION %v\n", v)
		}
		violations += len(gr.Violations)
	}
	kinds := make([]string, 0, len(r.Injected))
	for k := range r.Injected {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  injected %s: %d\n", k, r.Injected[k])
	}
	if !r.Converged() {
		b.WriteString("  WARNING: survivors did not converge inside the settle window\n")
	}
	if r.HealthMonitored {
		fmt.Fprintf(&b, "  health: degraded groups %v recovered=%v\n", r.DegradedGroups(), r.HealthRecovered)
	}
	if violations == 0 {
		b.WriteString("invariants: uniform atomicity and uniform ordering hold\n")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATIONS\n", violations)
	}
	return b.String()
}

// soak is one run in flight: what the phase skeleton and the scenario's
// drive step share.
type soak struct {
	ctx      context.Context
	cfg      Config // filled: every default resolved, Logf never nil
	mesh     *rt.Mesh
	checkers []*faultrt.Checker // one per group
	mon      *monitor           // nil without Config.Metrics
	rep      *Report

	// poll is the cadence of every wait on protocol state.
	poll time.Duration
	// sent and confirmed (per group) count the load generator's submissions.
	sent      atomic.Int64
	confirmed []atomic.Int64
}

// Run executes one soak: start the groups with the scenario's adversary at
// the link boundary and every member's protocol entities audited by their
// group's checker, load every (member, group), let the scenario drive its
// fault plan, let the survivors settle, then audit every group. ctx aborts the fault plan early
// (the settle and the audit still run on what happened).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.Scenario = cmp.Or(cfg.Scenario, Seeded())
	cfg.Round = cmp.Or(cfg.Round, 2*time.Millisecond)
	pc := cfg.Scenario.protocol(&cfg)
	cfg.Groups = cmp.Or(cfg.Groups, 1)
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &soak{
		ctx: ctx, cfg: cfg,
		rep:       &Report{Scenario: fmt.Sprint(cfg.Scenario), Groups: make([]GroupReport, cfg.Groups)},
		poll:      max(5*cfg.Round, 5*time.Millisecond),
		confirmed: make([]atomic.Int64, cfg.Groups),
	}
	for g := 0; g < cfg.Groups; g++ {
		s.checkers = append(s.checkers, faultrt.NewChecker())
	}

	inj := cfg.Scenario.injector(s)
	if cfg.Inject != nil {
		inj = faultrt.Multi{inj, cfg.Inject}
	}
	hook := faultrt.NewHook(inj, cfg.Metrics)
	if cfg.CaptureFrames > 0 {
		for i := 0; i < cfg.N; i++ {
			s.rep.Captures = append(s.rep.Captures, capture.New(capture.Options{
				Node: mid.ProcID(i), N: cfg.N, K: pc.K, R: pc.R, MaxFrames: cfg.CaptureFrames,
			}))
		}
		// The hook sees every crash verdict first; the mark fences the
		// member's ring so replay knows its silence is death, not loss.
		hook.OnCrash = func(p mid.ProcID, _ time.Duration) {
			s.rep.Captures[p].Mark(capture.Crash, faultrt.KindSet(0).With(faultrt.KindCrash))
		}
	}
	var err error
	s.mesh, err = rt.NewMesh(rt.Config{
		Config:        pc,
		Groups:        cfg.Groups,
		RoundDuration: cfg.Round,
		BatchWindow:   cfg.BatchWindow,
		Metrics:       cfg.Metrics,
		Lifecycle:     cfg.Lifecycle,
		Fault:         hook,
		Captures:      s.rep.Captures,
		Logf:          cfg.Logf,
		// Every incarnation is audited on its loop goroutine, so all a dead
		// one processed is on record before its successor rebaselines.
		Observe: func(node mid.ProcID, group uint32) core.Callbacks {
			return core.Audit(s.checkers[group], node)
		},
	})
	if err != nil {
		return nil, err
	}
	s.mesh.Start()
	if cfg.Metrics != nil {
		s.mon = startMonitor(cfg)
		s.rep.HealthMonitored = true
	}

	// The load generator submits on every (member, group) every fourth
	// round until the fault plan is over. A send fails fast on a
	// fail-stopped or joining member and is abandoned after the timeout
	// otherwise; both are legal, the message stays in flight.
	var load sync.WaitGroup
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	for i := 0; i < cfg.N; i++ {
		for g := uint32(0); g < uint32(cfg.Groups); g++ {
			m := s.mesh.Node(mid.ProcID(i))
			load.Add(1)
			go func() {
				defer load.Done()
				tick := time.NewTicker(4 * cfg.Round)
				defer tick.Stop()
				for {
					select {
					case <-loadCtx.Done():
						return
					case <-tick.C:
					}
					sctx, cancel := context.WithTimeout(loadCtx, max(100*cfg.Round, 200*time.Millisecond))
					s.sent.Add(1)
					if _, err := m.SendCausal(sctx, g, []byte("chaos")); err == nil {
						s.confirmed[g].Add(1)
					}
					cancel()
				}
			}()
		}
	}

	cfg.Scenario.drive(s)
	stopLoad()
	load.Wait()
	cfg.Logf("%v fault plan over: sent=%d; settling", cfg.Scenario, s.sent.Load())

	// Settle: the protocol has recovered everything the faults delayed once,
	// in every group, the survivors' processed vectors are equal and were
	// the same one poll ago. Verdicts and views are read before Stop (they
	// watch the live members); recovery gets its own budget since the health
	// windows need a stretch of healthy samples to clear.
	prev := make([]mid.SeqVector, cfg.Groups)
	waitUntil(context.Background(), cfg.Settle, 4*s.poll, func() bool {
		for g := range prev {
			cur := s.frontier(uint32(g))
			s.rep.Groups[g].Converged = cur != nil && cur.Equal(prev[g])
			prev[g] = cur
		}
		return s.rep.Converged()
	})
	if s.mon != nil {
		s.rep.HealthRecovered = waitUntil(context.Background(), cfg.Settle, s.poll, s.healthy)
		degraded := s.mon.stop()
		for d := range degraded {
			gr := &s.rep.Groups[d.group]
			if gr.Degraded == nil {
				gr.Degraded = make(map[mid.ProcID][]string)
			}
			gr.Degraded[d.node] = append(gr.Degraded[d.node], d.rule)
			sort.Strings(gr.Degraded[d.node])
		}
		cfg.Logf("health: degraded groups %v, survivors recovered=%v", s.rep.DegradedGroups(), s.rep.HealthRecovered)
	}
	for g := range s.rep.Groups {
		gr := &s.rep.Groups[g]
		gr.Survivors = s.survivors(uint32(g))
		alive := make([]bool, cfg.N)
		for _, p := range gr.Survivors {
			alive[p] = true
		}
		gr.ViewsAgree = s.everyStatus(gr.Survivors, uint32(g), func(st rt.Status) bool {
			return st.Running && !st.Joining && slices.Equal(st.Alive, alive)
		})
	}
	s.mesh.Stop()

	// Audit: every group's checker against that group's survivors.
	s.rep.Injected = hook.Injected()
	s.rep.Sent = s.sent.Load()
	for i := 0; i < cfg.N; i++ {
		if s.mesh.Node(mid.ProcID(i)).Killed() {
			s.rep.Killed = append(s.rep.Killed, mid.ProcID(i))
		}
	}
	for g := range s.rep.Groups {
		gr := &s.rep.Groups[g]
		gr.Confirmed = s.confirmed[g].Load()
		s.rep.Confirmed += gr.Confirmed
		gr.Left = make(map[mid.ProcID]core.LeaveReason)
		gr.Processed = make(map[mid.ProcID]int)
		for i := 0; i < cfg.N; i++ {
			p := mid.ProcID(i)
			gr.Processed[p] = s.checkers[g].Recorded(p)
			if reason, left := s.mesh.Node(p).Left(uint32(g)); left {
				gr.Left[p] = reason
			}
		}
		gr.Violations = s.checkers[g].Check(gr.Survivors)
	}
	return s.rep, nil
}

// waitUntil polls cond every `every` until it holds; false means the budget
// ran out or ctx ended first. It is the harness's only way of waiting.
func waitUntil(ctx context.Context, budget, every time.Duration, cond func() bool) bool {
	deadline := time.After(budget)
	for !cond() {
		select {
		case <-time.After(every):
		case <-deadline:
			return false
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// hold lets d of the fault plan pass (less if the run is aborted).
func (s *soak) hold(d time.Duration) {
	waitUntil(s.ctx, d, d, func() bool { return false })
}

// phase waits, inside the settle budget, for a step of the fault plan.
func (s *soak) phase(cond func() bool) bool {
	return waitUntil(s.ctx, s.cfg.Settle, s.poll, cond)
}

// survivors lists the members neither fail-stopped nor self-excluded from
// group g.
func (s *soak) survivors(g uint32) []mid.ProcID {
	var out []mid.ProcID
	for i := 0; i < s.cfg.N; i++ {
		m := s.mesh.Node(mid.ProcID(i))
		if _, left := m.Left(g); !left && !m.Killed() {
			out = append(out, m.ID())
		}
	}
	return out
}

// everyStatus samples group g at each listed member and reports whether
// every sample could be taken and satisfies ok.
func (s *soak) everyStatus(members []mid.ProcID, g uint32, ok func(rt.Status) bool) bool {
	for _, p := range members {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		st, err := s.mesh.Node(p).GroupStatus(ctx, g)
		cancel()
		if err != nil || !ok(st) {
			return false
		}
	}
	return true
}

// frontier returns the processed vector group g's survivors agree on, or
// nil while they differ.
func (s *soak) frontier(g uint32) mid.SeqVector {
	var common mid.SeqVector
	agree := s.everyStatus(s.survivors(g), g, func(st rt.Status) bool {
		if common == nil {
			common = st.Processed
		}
		return common.Equal(st.Processed)
	})
	if !agree {
		return nil
	}
	return common
}

// healthy reports whether every group's every survivor has a healthy verdict
// right now.
func (s *soak) healthy() bool {
	verdicts := s.mon.eval()
	for g := 0; g < s.cfg.Groups; g++ {
		for _, p := range s.survivors(uint32(g)) {
			if !verdicts[p].Groups[g].Healthy {
				return false
			}
		}
	}
	return true
}
