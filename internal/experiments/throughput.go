package experiments

import (
	"fmt"

	"urcgc/internal/cbcast"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/workload"
)

// ThroughputConfig parameterizes the throughput-under-failures comparison.
// The paper claims urcgc "performs better than other proposals in terms of
// both network load and throughput" under failure conditions; Table 1
// covers network load, and this experiment quantifies throughput: messages
// processed per rtd across the group, before, during and after a crash.
type ThroughputConfig struct {
	N       int
	K       int
	Subruns int // workload duration
	CrashAt int // subrun of the fail-stop
	Seed    int64
}

// DefaultThroughput returns the configuration used by cmd/urcgc-bench.
func DefaultThroughput() ThroughputConfig {
	return ThroughputConfig{N: 10, K: 3, Subruns: 80, CrashAt: 20, Seed: 1}
}

// ThroughputResult compares per-phase processing rates.
type ThroughputResult struct {
	Cfg ThroughputConfig
	// Rates in processed messages per rtd (summed over live processes),
	// split at the crash and at the detection horizon (crash + 2K+4).
	URCGCBefore, URCGCDuring, URCGCAfter    float64
	CBCASTBefore, CBCASTDuring, CBCASTAfter float64
}

// Throughput runs both protocols through an identical crash scenario under
// full load and measures the group's processing rate in the three phases.
func Throughput(cfg ThroughputConfig) (ThroughputResult, error) {
	res := ThroughputResult{Cfg: cfg}
	crashT := sim.StartOfSubrun(cfg.CrashAt)
	// The "during" window spans detection and recovery: 2K+4 subruns.
	horizon := crashT + sim.Time(2*cfg.K+4)*sim.TicksPerSubrun
	endT := sim.StartOfSubrun(cfg.Subruns)

	// --- urcgc ---
	uc, err := core.NewCluster(core.ClusterConfig{
		Config:   core.Config{N: cfg.N, K: cfg.K, R: 2*cfg.K + 2, SelfExclusion: true},
		Seed:     cfg.Seed,
		Injector: faultrt.CrashAt{Proc: mid.ProcID(cfg.N - 1), At: crashT.Duration()},
	})
	if err != nil {
		return res, err
	}
	var ub, ud, ua int
	countU := func(at sim.Time) {
		switch {
		case at < crashT:
			ub++
		case at < horizon:
			ud++
		default:
			ua++
		}
	}
	// Processing events are counted by sampling Log growth at
	// every round boundary; the phase is decided by the round's time.
	prevCounts := make([]int, cfg.N)
	gen := workload.New(uc, cfg.Seed^0x77, workload.WithLimit(cfg.Subruns))
	_, err = uc.Run(core.RunOptions{
		MaxRounds: 2*cfg.Subruns + 100,
		OnRound: func(round int) {
			gen.OnRound(round)
			for i := 0; i < cfg.N; i++ {
				cur := len(uc.Log[i])
				for k := prevCounts[i]; k < cur; k++ {
					countU(uc.Engine().Now())
				}
				prevCounts[i] = cur
			}
		},
	})
	if err != nil {
		return res, err
	}
	res.URCGCBefore = perRTD(ub, 0, crashT)
	res.URCGCDuring = perRTD(ud, crashT, horizon)
	res.URCGCAfter = perRTD(ua, horizon, endT)

	// --- CBCAST ---
	cc, err := cbcast.NewCluster(cbcast.ClusterConfig{
		Config:   cbcast.Config{N: cfg.N, K: cfg.K},
		Seed:     cfg.Seed,
		Injector: faultrt.CrashAt{Proc: mid.ProcID(cfg.N - 1), At: crashT.Duration()},
	})
	if err != nil {
		return res, err
	}
	var cb, cd, ca int
	prevC := make([]int, cfg.N)
	err = cc.Run(2*cfg.Subruns+100, func(round int) {
		if round%2 == 0 && round/2 < cfg.Subruns {
			for i := 0; i < cfg.N; i++ {
				if !cc.Crashed(mid.ProcID(i)) {
					cc.Submit(mid.ProcID(i), payload())
				}
			}
		}
		now := cc.Engine().Now()
		for i := 0; i < cfg.N; i++ {
			cur := len(cc.Log[i])
			for k := prevC[i]; k < cur; k++ {
				switch {
				case now < crashT:
					cb++
				case now < horizon:
					cd++
				default:
					ca++
				}
			}
			prevC[i] = cur
		}
	})
	if err != nil {
		return res, err
	}
	res.CBCASTBefore = perRTD(cb, 0, crashT)
	res.CBCASTDuring = perRTD(cd, crashT, horizon)
	res.CBCASTAfter = perRTD(ca, horizon, endT)
	return res, nil
}

func perRTD(count int, from, to sim.Time) float64 {
	span := (to - from).RTD()
	if span <= 0 {
		return 0
	}
	return float64(count) / span
}

// Render prints the comparison.
func (r ThroughputResult) Render() string {
	rows := [][]string{
		{"urcgc", f1(r.URCGCBefore), f1(r.URCGCDuring), f1(r.URCGCAfter)},
		{"cbcast", f1(r.CBCASTBefore), f1(r.CBCASTDuring), f1(r.CBCASTAfter)},
	}
	return fmt.Sprintf("Throughput — group messages processed per rtd around a crash at subrun %d (n=%d K=%d)\n",
		r.Cfg.CrashAt, r.Cfg.N, r.Cfg.K) +
		table([]string{"protocol", "before crash", "during detection", "after"}, rows)
}
