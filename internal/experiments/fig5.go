package experiments

import (
	"fmt"
	"math/rand"

	"urcgc/internal/cbcast"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/psync"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

// Fig5Config parameterizes the agreement-time experiment.
type Fig5Config struct {
	N    int
	K    int
	Fs   []int // consecutive coordinator/manager crashes to sweep
	Seed int64
}

// DefaultFig5 returns the configuration used by cmd/urcgc-bench.
func DefaultFig5() Fig5Config {
	return Fig5Config{N: 10, K: 3, Fs: []int{0, 1, 2, 3, 4}, Seed: 1}
}

// Fig5Point is one x-position of Figure 5.
type Fig5Point struct {
	F int
	// URCGCAnalytic is the paper's 2K+f; CBCASTAnalytic is K(5f+6).
	URCGCAnalytic  float64
	CBCASTAnalytic float64
	// Measured values from the operational protocols (rtd). The paper
	// compares Psync only qualitatively ("mask_out has to be activated all
	// over again whenever a failure occurs"); PsyncMeasured quantifies its
	// blocking agreement for the f=0 case and is 0 for f > 0 (mask_out has
	// no initiator-failover story comparable to the other two).
	URCGCMeasured  float64
	CBCASTMeasured float64
	PsyncMeasured  float64
}

// Fig5Result is the full figure.
type Fig5Result struct {
	Cfg    Fig5Config
	Points []Fig5Point
}

// Fig5 reproduces Figure 5: the time T to complete the agreement on the new
// group composition and message stability after a crash, against the number
// f of consecutive coordinator (urcgc) / manager (CBCAST) crashes.
func Fig5(cfg Fig5Config) (Fig5Result, error) {
	res := Fig5Result{Cfg: cfg}
	for _, f := range cfg.Fs {
		u, err := fig5URCGC(cfg, f)
		if err != nil {
			return res, err
		}
		cb, err := fig5CBCAST(cfg, f)
		if err != nil {
			return res, err
		}
		pt := Fig5Point{
			F:              f,
			URCGCAnalytic:  float64(2*cfg.K + f),
			CBCASTAnalytic: float64(cfg.K * (5*f + 6)),
			URCGCMeasured:  u,
			CBCASTMeasured: cb,
		}
		if f == 0 {
			ps, err := fig5Psync(cfg)
			if err != nil {
				return res, err
			}
			pt.PsyncMeasured = ps
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// fig5URCGC crashes a subject process, then the coordinators of the next f
// subruns right before their decision phases, and measures the time until
// every active process has applied a full-group decision that excludes the
// subject.
func fig5URCGC(cfg Fig5Config, f int) (float64, error) {
	const s0 = 6
	subject := mid.ProcID(3) // not a coordinator around subrun s0 for n>=8
	t0 := sim.StartOfSubrun(s0)
	inj := faultrt.Multi{faultrt.CrashAt{Proc: subject, At: t0.Duration()}}
	for i := 1; i <= f; i++ {
		coord := mid.ProcID((s0 + i) % cfg.N)
		inj = append(inj, faultrt.CrashAt{
			Proc: coord,
			At:   (sim.StartOfSubrun(s0+i) + sim.TicksPerRound - 1).Duration(),
		})
	}
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{
			N: cfg.N, K: cfg.K, R: 2*cfg.K + 2,
			// f may exceed K; the autonomous-leave rules would evict
			// correct processes outside the resilience assumption.
			SelfExclusion: false,
		},
		Seed:     cfg.Seed,
		Injector: inj,
	})
	if err != nil {
		return 0, err
	}
	agreedAt := make(map[mid.ProcID]sim.Time)
	c.OnDecision = func(p mid.ProcID, d *wire.Decision) {
		if _, done := agreedAt[p]; done {
			return
		}
		if c.Engine().Now() < t0 {
			return
		}
		if d.FullGroup && int(subject) < len(d.Alive) && !d.Alive[subject] {
			agreedAt[p] = c.Engine().Now()
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x915))
	_, err = c.Run(core.RunOptions{
		MaxRounds: 2 * (s0 + 2*cfg.K + f + 30),
		OnRound:   ringWorkload(c, rng, 1.0, s0+2*cfg.K+f+25),
	})
	if err != nil {
		return 0, err
	}
	var worst sim.Time = -1
	for _, p := range c.ActiveSet() {
		at, ok := agreedAt[p]
		if !ok {
			return -1, fmt.Errorf("fig5: f=%d: process %d never agreed", f, p)
		}
		if at > worst {
			worst = at
		}
	}
	return (worst - t0).RTD(), nil
}

// fig5CBCAST crashes a subject member, then the flush managers in rank
// order as they take over, and measures the time until every live member
// installs a view excluding the subject.
func fig5CBCAST(cfg Fig5Config, f int) (float64, error) {
	const s0 = 6
	subject := mid.ProcID(cfg.N - 1)
	t0 := sim.StartOfSubrun(s0)
	inj := faultrt.Multi{faultrt.CrashAt{Proc: subject, At: t0.Duration()}}
	// Managers are the lowest-ranked live members: 0, then 1, ... Crash
	// manager i a little into its flush attempt.
	for i := 0; i < f; i++ {
		inj = append(inj, faultrt.CrashAt{
			Proc: mid.ProcID(i),
			At:   (t0 + sim.Time(cfg.K*(2+3*i))*sim.TicksPerSubrun).Duration(),
		})
	}
	c, err := cbcast.NewCluster(cbcast.ClusterConfig{
		Config:   cbcast.Config{N: cfg.N, K: cfg.K},
		Seed:     cfg.Seed,
		Injector: inj,
	})
	if err != nil {
		return 0, err
	}
	maxRounds := 2 * (s0 + cfg.K*(5*f+6) + 12*cfg.K*(f+2) + 40)
	err = c.Run(maxRounds, func(round int) {
		if round%2 != 0 || round/2 >= s0+cfg.K*(5*f+6)+30 {
			return
		}
		for i := 0; i < c.N(); i++ {
			if c.Crashed(mid.ProcID(i)) {
				continue
			}
			c.Submit(mid.ProcID(i), payload())
		}
	})
	if err != nil {
		return 0, err
	}
	// The agreement completes when every live member has installed a view
	// excluding the subject (and every crashed manager): take the earliest
	// epoch whose view excludes the subject, installed everywhere.
	var worst sim.Time = -1
	for i := 0; i < c.N(); i++ {
		p := mid.ProcID(i)
		if c.Crashed(p) {
			continue
		}
		if c.Proc(p).Alive(subject) {
			return -1, fmt.Errorf("fig5 cbcast: f=%d: member %d never excluded the subject", f, p)
		}
		var first sim.Time = -1
		for e := int32(1); e <= int32(f)+3; e++ {
			at, ok := c.ViewInstalls[p][e]
			if ok && at >= t0 {
				first = at
				break
			}
		}
		if first < 0 {
			return -1, fmt.Errorf("fig5 cbcast: f=%d: member %d has no install", f, p)
		}
		if first > worst {
			worst = first
		}
	}
	return (worst - t0).RTD(), nil
}

// fig5Psync measures Psync's mask_out agreement for one member crash: the
// time from the fail-stop until every surviving participant has installed
// the mask (and was suspended meanwhile).
func fig5Psync(cfg Fig5Config) (float64, error) {
	const s0 = 6
	subject := mid.ProcID(cfg.N - 1)
	t0 := sim.StartOfSubrun(s0)
	c, err := psync.NewCluster(psync.ClusterConfig{
		Config:   psync.Config{N: cfg.N, K: cfg.K},
		Seed:     cfg.Seed,
		Injector: faultrt.CrashAt{Proc: subject, At: t0.Duration()},
	})
	if err != nil {
		return 0, err
	}
	masked := make([]sim.Time, cfg.N)
	for i := range masked {
		masked[i] = -1
	}
	err = c.Run(2*(s0+10*cfg.K+30), func(round int) {
		if round%2 == 0 && round/2 < s0+10*cfg.K+20 {
			for i := 0; i < c.N(); i++ {
				if !c.Crashed(mid.ProcID(i)) {
					c.Submit(mid.ProcID(i), payload())
				}
			}
		}
		for i := 0; i < c.N(); i++ {
			p := mid.ProcID(i)
			if masked[i] < 0 && !c.Crashed(p) && !c.Proc(p).Alive(subject) {
				masked[i] = c.Engine().Now()
			}
		}
	})
	if err != nil {
		return 0, err
	}
	var worst sim.Time = -1
	for i := 0; i < cfg.N; i++ {
		if c.Crashed(mid.ProcID(i)) {
			continue
		}
		if masked[i] < 0 {
			return -1, fmt.Errorf("fig5 psync: member %d never masked the subject", i)
		}
		if masked[i] > worst {
			worst = masked[i]
		}
	}
	return (worst - t0).RTD(), nil
}

// Render prints the figure as a table.
func (r Fig5Result) Render() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		ps := "-"
		if p.PsyncMeasured > 0 {
			ps = f1(p.PsyncMeasured)
		}
		rows = append(rows, []string{
			fmt.Sprint(p.F),
			f1(p.URCGCAnalytic), f1(p.URCGCMeasured),
			f1(p.CBCASTAnalytic), f1(p.CBCASTMeasured),
			ps,
		})
	}
	return fmt.Sprintf("Figure 5 — agreement time T (rtd) vs consecutive coordinator crashes f, n=%d K=%d\n", r.Cfg.N, r.Cfg.K) +
		table([]string{"f", "urcgc 2K+f", "urcgc meas", "cbcast K(5f+6)", "cbcast meas", "psync mask_out"}, rows)
}
