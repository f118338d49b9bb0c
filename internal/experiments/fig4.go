package experiments

import (
	"fmt"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/workload"
)

// Fig4Config parameterizes the delay-vs-load experiment.
type Fig4Config struct {
	N       int       // group size (paper-scale default 10)
	K       int       // crash-declaration retries
	Loads   []float64 // offered load, messages per process per subrun
	Subruns int       // workload duration per run
	Crashes int       // crashes in the "crash" condition (paper: 4)
	Seed    int64
}

// DefaultFig4 returns the configuration used by cmd/urcgc-bench.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		N: 10, K: 3,
		Loads:   []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0},
		Subruns: 150,
		Crashes: 4,
		Seed:    1,
	}
}

// Fig4Point is one x-position of Figure 4: the mean end-to-end delay D (in
// rtd) under each of the paper's four conditions.
type Fig4Point struct {
	Load      float64
	DReliable float64
	DCrash    float64 // 4 crashes: the paper's headline — same as reliable
	DOmit500  float64 // one omission per 500 messages
	DOmit100  float64 // one omission per 100 messages
}

// Fig4Result is the full figure.
type Fig4Result struct {
	Cfg    Fig4Config
	Points []Fig4Point
}

// Fig4 reproduces Figure 4: mean end-to-end delay D against the offered
// load of user messages, under reliable conditions, with crashes, and with
// omission rates 1/500 and 1/100.
func Fig4(cfg Fig4Config) (Fig4Result, error) {
	res := Fig4Result{Cfg: cfg}
	for li, load := range cfg.Loads {
		seed := cfg.Seed + int64(li)*101
		rel, err := fig4Run(cfg, load, seed, nil)
		if err != nil {
			return res, err
		}
		crash, err := fig4Run(cfg, load, seed, fig4Crashes(cfg))
		if err != nil {
			return res, err
		}
		om500, err := fig4Run(cfg, load, seed, &faultrt.DropEvery{N: 500, Side: faultrt.AtSend})
		if err != nil {
			return res, err
		}
		om100, err := fig4Run(cfg, load, seed, &faultrt.DropEvery{N: 100, Side: faultrt.AtSend})
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, Fig4Point{
			Load: load, DReliable: rel, DCrash: crash, DOmit500: om500, DOmit100: om100,
		})
	}
	return res, nil
}

// fig4Crashes spreads cfg.Crashes fail-stops across the run, one at a time,
// never more than the per-subrun resilience.
func fig4Crashes(cfg Fig4Config) faultrt.Injector {
	var inj faultrt.Multi
	for i := 0; i < cfg.Crashes; i++ {
		at := sim.StartOfSubrun(20 + 25*i)
		inj = append(inj, faultrt.CrashAt{Proc: mid.ProcID(cfg.N - 1 - i), At: at.Duration()})
	}
	return inj
}

func fig4Run(cfg Fig4Config, load float64, seed int64, inj faultrt.Injector) (float64, error) {
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{
			N: cfg.N, K: cfg.K, R: 2*cfg.K + 2, SelfExclusion: true,
		},
		Seed:     seed,
		Injector: inj,
	})
	if err != nil {
		return 0, err
	}
	_, err = c.Run(core.RunOptions{
		MaxRounds:         2*cfg.Subruns + 200,
		MinRounds:         2 * cfg.Subruns,
		OnRound:           workload.New(c, seed^0x5f4, workload.WithRate(load), workload.WithLimit(cfg.Subruns)).OnRound,
		StopWhenQuiescent: true,
		DrainSubruns:      4,
	})
	if err != nil {
		return 0, err
	}
	return c.Delay.MeanRTD(), nil
}

// Render prints the figure as a table.
func (r Fig4Result) Render() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			f2(p.Load), f2(p.DReliable), f2(p.DCrash), f2(p.DOmit500), f2(p.DOmit100),
		})
	}
	return fmt.Sprintf("Figure 4 — mean end-to-end delay D (rtd) vs offered load (msgs/proc/subrun), n=%d K=%d\n", r.Cfg.N, r.Cfg.K) +
		table([]string{"load", "reliable", fmt.Sprintf("%d crashes", r.Cfg.Crashes), "omit 1/500", "omit 1/100"}, rows)
}
