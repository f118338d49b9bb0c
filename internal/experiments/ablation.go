package experiments

import (
	"fmt"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/workload"
)

// AblationConfig parameterizes the design-choice ablations.
type AblationConfig struct {
	N    int
	K    int
	Seed int64
}

// DefaultAblation returns the configuration used by cmd/urcgc-bench.
func DefaultAblation() AblationConfig { return AblationConfig{N: 8, K: 3, Seed: 1} }

// AblationResult gathers the three ablations DESIGN.md calls out.
type AblationResult struct {
	Cfg AblationConfig

	// Transport h (Section 5): identical loss, repair location moves.
	H1Recoveries, H1Retries int
	H4Recoveries, H4Retries int

	// Causal labelling: intermediate (explicit labels) vs temporal
	// (depend-on-everything) under identical loss. The waiting-list peak
	// shows the concurrency argument of Section 3: one missing message
	// blocks every sequence under temporal labels, only its dependents
	// under the intermediate interpretation. P95 delay tells the same
	// story from the latency side.
	IntermediateWaitPeak, TemporalWaitPeak float64
	IntermediateP95RTD, TemporalP95RTD     float64

	// Flow control: history peak with the valve off vs at 3n.
	PeakNoFC, PeakFC float64
}

// Ablation runs the three ablations.
func Ablation(cfg AblationConfig) (AblationResult, error) {
	res := AblationResult{Cfg: cfg}
	var err error
	if res.H1Recoveries, res.H1Retries, err = ablateTransport(cfg, 1); err != nil {
		return res, err
	}
	if res.H4Recoveries, res.H4Retries, err = ablateTransport(cfg, 4); err != nil {
		return res, err
	}
	if res.IntermediateWaitPeak, res.IntermediateP95RTD, err = ablateLabelling(cfg, workload.Ring); err != nil {
		return res, err
	}
	if res.TemporalWaitPeak, res.TemporalP95RTD, err = ablateLabelling(cfg, workload.Temporal); err != nil {
		return res, err
	}
	if res.PeakNoFC, err = ablateFlowControl(cfg, 0); err != nil {
		return res, err
	}
	if res.PeakFC, err = ablateFlowControl(cfg, 3*cfg.N); err != nil {
		return res, err
	}
	return res, nil
}

func ablateTransport(cfg AblationConfig, h int) (recoveries, retries int, err error) {
	c, err := core.NewCluster(core.ClusterConfig{
		Config:     core.Config{N: cfg.N, K: cfg.K, R: 2*cfg.K + 2, SelfExclusion: true},
		Seed:       cfg.Seed + 11,
		TransportH: h,
		Injector: faultrt.During{
			From: 0, To: (12 * sim.TicksPerRTD).Duration(),
			Inner: faultrt.NewDropRate(0.04, faultrt.AtSend, cfg.Seed+77),
		},
	})
	if err != nil {
		return 0, 0, err
	}
	gen := workload.New(c, cfg.Seed^0x21, workload.WithLimit(15), workload.WithShape(workload.Independent))
	if _, err := c.Run(core.RunOptions{
		MaxRounds: 600, MinRounds: 60,
		OnRound:           gen.OnRound,
		StopWhenQuiescent: true, DrainSubruns: 4,
	}); err != nil {
		return 0, 0, err
	}
	for p := 0; p < c.N(); p++ {
		recoveries += c.Proc(mid.ProcID(p)).Stats.Recoveries
		if e := c.TransportEntity(mid.ProcID(p)); e != nil {
			retries += e.Stats.Retries
		}
	}
	return recoveries, retries, nil
}

func ablateLabelling(cfg AblationConfig, shape workload.Shape) (waitPeak, p95 float64, err error) {
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{N: cfg.N, K: cfg.K, R: 2*cfg.K + 2, SelfExclusion: true},
		Seed:   cfg.Seed + 5,
		Injector: faultrt.During{
			From: 0, To: (30 * sim.TicksPerRTD).Duration(),
			Inner: &faultrt.DropEvery{N: 40, Side: faultrt.AtSend},
		},
	})
	if err != nil {
		return 0, 0, err
	}
	gen := workload.New(c, cfg.Seed^0x44, workload.WithLimit(40), workload.WithShape(shape))
	res, err := c.Run(core.RunOptions{
		MaxRounds: 800, MinRounds: 2 * 2 * 40,
		OnRound:           gen.OnRound,
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		return 0, 0, err
	}
	if res.QuiescentAtRound < 0 {
		return -1, -1, fmt.Errorf("ablation: %v labelling never drained", shape)
	}
	return c.WaitMax.Max(), c.Delay.PercentileRTD(95), nil
}

func ablateFlowControl(cfg AblationConfig, threshold int) (float64, error) {
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{
			N: cfg.N, K: cfg.K + 2, R: 2*(cfg.K+2) + 2,
			HistoryThreshold: threshold, SelfExclusion: true,
		},
		Seed:     cfg.Seed + 3,
		Injector: faultrt.CrashAt{Proc: mid.ProcID(cfg.N - 1), At: (2 * sim.TicksPerRTD).Duration()},
	})
	if err != nil {
		return 0, err
	}
	if err := workload.Burst(c, 30, nil); err != nil {
		return 0, err
	}
	if _, err := c.Run(core.RunOptions{
		MaxRounds: 800, MinRounds: 60,
		StopWhenQuiescent: true, DrainSubruns: 8,
	}); err != nil {
		return 0, err
	}
	return c.HistMax.Max(), nil
}

// Render prints the ablations.
func (r AblationResult) Render() string {
	rows := [][]string{
		{"transport h=1 (datagram)", fmt.Sprintf("%d history recoveries, %d transport retries", r.H1Recoveries, r.H1Retries)},
		{"transport h=4", fmt.Sprintf("%d history recoveries, %d transport retries", r.H4Recoveries, r.H4Retries)},
		{"labelling intermediate", fmt.Sprintf("waiting peak %.0f, p95 delay %.2f rtd", r.IntermediateWaitPeak, r.IntermediateP95RTD)},
		{"labelling temporal", fmt.Sprintf("waiting peak %.0f, p95 delay %.2f rtd", r.TemporalWaitPeak, r.TemporalP95RTD)},
		{"flow control off", fmt.Sprintf("history peak %.0f", r.PeakNoFC)},
		{"flow control 3n", fmt.Sprintf("history peak %.0f", r.PeakFC)},
	}
	return fmt.Sprintf("Ablations — design choices isolated (n=%d K=%d)\n", r.Cfg.N, r.Cfg.K) +
		table([]string{"variant", "outcome"}, rows)
}

// CSV renders the ablations as CSV.
func (r AblationResult) CSV() string {
	rows := [][]string{
		{"variant", "metric", "value"},
		{"transport_h1", "history_recoveries", fmt.Sprint(r.H1Recoveries)},
		{"transport_h1", "transport_retries", fmt.Sprint(r.H1Retries)},
		{"transport_h4", "history_recoveries", fmt.Sprint(r.H4Recoveries)},
		{"transport_h4", "transport_retries", fmt.Sprint(r.H4Retries)},
		{"labelling_intermediate", "wait_peak", f1(r.IntermediateWaitPeak)},
		{"labelling_intermediate", "p95_rtd", f2(r.IntermediateP95RTD)},
		{"labelling_temporal", "wait_peak", f1(r.TemporalWaitPeak)},
		{"labelling_temporal", "p95_rtd", f2(r.TemporalP95RTD)},
		{"flow_control_off", "hist_peak", f1(r.PeakNoFC)},
		{"flow_control_3n", "hist_peak", f1(r.PeakFC)},
	}
	return csvJoin(rows)
}
