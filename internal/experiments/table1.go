package experiments

import (
	"fmt"

	"urcgc/internal/cbcast"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
	"urcgc/internal/workload"
)

// Table1Config parameterizes the control-traffic experiment.
type Table1Config struct {
	Ns      []int // group sizes (the paper discusses 15 and 40)
	K       int
	Subruns int
	Seed    int64
}

// DefaultTable1 returns the configuration used by cmd/urcgc-bench.
func DefaultTable1() Table1Config {
	return Table1Config{Ns: []int{15, 40}, K: 3, Subruns: 40, Seed: 1}
}

// Table1Row is one (protocol, n, condition) row: control messages per
// subrun, their mean size, and the paper's closed-form where it gives one.
type Table1Row struct {
	Protocol  string
	N         int
	Condition string // "reliable" or "crash"
	// MsgsPerSubrun counts control messages (everything but user data)
	// offered to the network per subrun.
	MsgsPerSubrun float64
	// MeanSize is the mean encoded control-message size in bytes.
	MeanSize float64
	// PaperMsgs is the paper's count formula evaluated for this row
	// (urcgc reliable: 2(n-1); urcgc crash: 2(2K+f)(n-1) over the recovery
	// window; CBCAST crash: K((f+1)(2n-3)+1)); 0 when the paper gives none.
	PaperMsgs float64
	// FitsIPDatagram reports whether the largest control message fits the
	// 576-byte minimum IP datagram, the paper's packaging argument.
	FitsIPDatagram bool
	MaxSize        int
}

// Table1Result is the full table.
type Table1Result struct {
	Cfg  Table1Config
	Rows []Table1Row
}

// Table1 reproduces Table 1: the amount of control messages and their size
// for urcgc and CBCAST under reliable and crash conditions.
func Table1(cfg Table1Config) (Table1Result, error) {
	res := Table1Result{Cfg: cfg}
	for _, n := range cfg.Ns {
		crashInj := func() faultrt.Injector {
			return faultrt.CrashAt{Proc: mid.ProcID(n - 1), At: sim.StartOfSubrun(8).Duration()}
		}
		// urcgc reliable and crash.
		ur, err := table1URCGC(cfg, n, nil)
		if err != nil {
			return res, err
		}
		ur.PaperMsgs = float64(2 * (n - 1))
		res.Rows = append(res.Rows, ur)
		uc, err := table1URCGC(cfg, n, crashInj())
		if err != nil {
			return res, err
		}
		uc.Condition = "crash"
		// Over a recovery window of 2K+f subruns the paper counts
		// 2(2K+f)(n-1) messages, i.e. still 2(n-1) per subrun.
		uc.PaperMsgs = float64(2 * (n - 1))
		res.Rows = append(res.Rows, uc)
		// CBCAST reliable and crash.
		cr, err := table1CBCAST(cfg, n, nil)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, cr)
		cc, err := table1CBCAST(cfg, n, crashInj())
		if err != nil {
			return res, err
		}
		cc.Condition = "crash"
		cc.PaperMsgs = float64(cfg.K * (1*(2*n-3) + 1)) // f=0 term of K((f+1)(2n-3)+1)
		res.Rows = append(res.Rows, cc)
	}
	return res, nil
}

func table1URCGC(cfg Table1Config, n int, inj faultrt.Injector) (Table1Row, error) {
	c, err := core.NewCluster(core.ClusterConfig{
		Config:   core.Config{N: n, K: cfg.K, R: 2*cfg.K + 2, SelfExclusion: true},
		Seed:     cfg.Seed,
		Injector: inj,
	})
	if err != nil {
		return Table1Row{}, err
	}
	_, err = c.Run(core.RunOptions{
		MaxRounds: 2 * cfg.Subruns,
		OnRound:   workload.New(c, cfg.Seed^0x7a, workload.WithLimit(cfg.Subruns)).OnRound,
	})
	if err != nil {
		return Table1Row{}, err
	}
	load := c.Net().Load()
	row := Table1Row{
		Protocol:      "urcgc",
		N:             n,
		Condition:     "reliable",
		MsgsPerSubrun: float64(load.ControlMsgs()) / float64(cfg.Subruns),
	}
	if m := load.ControlMsgs(); m > 0 {
		row.MeanSize = float64(load.ControlBytes()) / float64(m)
	}
	row.MaxSize = maxControlSize(load)
	row.FitsIPDatagram = row.MaxSize <= 576
	return row, nil
}

func table1CBCAST(cfg Table1Config, n int, inj faultrt.Injector) (Table1Row, error) {
	c, err := cbcast.NewCluster(cbcast.ClusterConfig{
		Config:   cbcast.Config{N: n, K: cfg.K},
		Seed:     cfg.Seed,
		Injector: inj,
	})
	if err != nil {
		return Table1Row{}, err
	}
	err = c.Run(2*cfg.Subruns, func(round int) {
		if round%2 != 0 || round/2 >= cfg.Subruns {
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
		return Table1Row{}, err
	}
	load := c.Net().Load()
	row := Table1Row{
		Protocol:      "cbcast",
		N:             n,
		Condition:     "reliable",
		MsgsPerSubrun: float64(load.ControlMsgs()) / float64(cfg.Subruns),
	}
	if m := load.ControlMsgs(); m > 0 {
		row.MeanSize = float64(load.ControlBytes()) / float64(m)
	}
	row.MaxSize = maxControlSize(load)
	row.FitsIPDatagram = row.MaxSize <= 576
	return row, nil
}

// maxControlSize approximates the largest control message from the mean
// per-kind sizes (exact per-message maxima are not retained; flush and
// retransmit bodies dominate and their means are representative).
func maxControlSize(load interface {
	MeanSize(wire.Kind) float64
}) int {
	max := 0
	for _, k := range []wire.Kind{
		wire.KindRequest, wire.KindDecision, wire.KindRecover, wire.KindRetransmit,
		wire.KindCBAck, wire.KindCBFlushReq, wire.KindCBFlush, wire.KindCBFlushDat, wire.KindCBView,
	} {
		if s := int(load.MeanSize(k) + 0.5); s > max {
			max = s
		}
	}
	return max
}

// Render prints the table.
func (r Table1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		paper := "-"
		if row.PaperMsgs > 0 {
			paper = f1(row.PaperMsgs)
		}
		fits := "no"
		if row.FitsIPDatagram {
			fits = "yes"
		}
		rows = append(rows, []string{
			row.Protocol, fmt.Sprint(row.N), row.Condition,
			f1(row.MsgsPerSubrun), paper, f1(row.MeanSize), fmt.Sprint(row.MaxSize), fits,
		})
	}
	return fmt.Sprintf("Table 1 — control messages and sizes, K=%d, full load\n", r.Cfg.K) +
		table([]string{"protocol", "n", "condition", "ctl msgs/subrun", "paper msgs/subrun", "mean size B", "max size B", "fits 576B IP"}, rows)
}
