// Command urcgc-sim runs one configurable urcgc scenario in the
// discrete-event simulator and prints a run report: end-to-end delays,
// network load, history behaviour, group evolution.
//
// Usage examples:
//
//	urcgc-sim -n 10 -k 3 -load 1.0 -subruns 100
//	urcgc-sim -n 40 -k 5 -crash 39@4 -omit 500 -threshold 320
//	urcgc-sim -n 10 -crash "3@6,4@7" -seed 7
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

func main() {
	var (
		n         = flag.Int("n", 10, "group size")
		k         = flag.Int("k", 3, "K: retries before a silent process is declared crashed")
		r         = flag.Int("r", 0, "R: failed recoveries before leaving (default 2K+2)")
		load      = flag.Float64("load", 1.0, "offered load: msgs per process per subrun")
		subruns   = flag.Int("subruns", 100, "workload duration in subruns")
		seed      = flag.Int64("seed", 1, "simulation seed")
		crash     = flag.String("crash", "", "crash schedule, e.g. \"3@6,4@7\" (proc@subrun)")
		omit      = flag.Int("omit", 0, "drop one packet every N (0 = none)")
		omitUntil = flag.Int("omit-until", 0, "confine omissions to the first N rtd (0 = whole run)")
		threshold = flag.Int("threshold", 0, "flow-control history threshold (0 = off; paper: 8n)")
		transH    = flag.Int("h", 1, "transport h parameter (1 = bare datagrams)")
		partition = flag.String("partition", "", "network cut, e.g. \"0,1,2@6-10\" (side A members @ subrun range)")
		causalDep = flag.Bool("temporal", false, "use conservative depend-on-everything labelling")
	)
	flag.Parse()

	if *r == 0 {
		*r = 2**k + 2
	}
	inj, err := buildInjector(*n, *crash, *omit, *omitUntil, *partition)
	if err != nil {
		fatal(err)
	}
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{
			N: *n, K: *k, R: *r,
			HistoryThreshold: *threshold,
			SelfExclusion:    true,
		},
		Seed:       *seed,
		Injector:   inj,
		TransportH: *transH,
	})
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed ^ 0xfeed))
	res, err := c.Run(core.RunOptions{
		MaxRounds: 2**subruns + 400,
		MinRounds: 2 * *subruns,
		OnRound: func(round int) {
			if round%2 != 0 || round/2 >= *subruns {
				return
			}
			for i := 0; i < c.N(); i++ {
				p := mid.ProcID(i)
				if !c.Active(p) || rng.Float64() >= *load {
					continue
				}
				if *causalDep {
					_, _ = c.SubmitCausal(p, []byte("payload"))
					continue
				}
				prev := mid.ProcID((i + c.N() - 1) % c.N())
				var deps mid.DepList
				if s := c.Proc(p).Processed()[prev]; s > 0 {
					deps = mid.DepList{{Proc: prev, Seq: s}}
				}
				_, _ = c.Submit(p, []byte("payload"), deps)
			}
		},
		StopWhenQuiescent: true,
		DrainSubruns:      2**k + 2,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("urcgc simulation: n=%d K=%d R=%d load=%.2f subruns=%d seed=%d h=%d\n",
		*n, *k, *r, *load, *subruns, *seed, *transH)
	if inj != nil {
		omission := ""
		if *omit > 0 {
			omission = fmt.Sprintf(" omission=1/%d", *omit)
		}
		fmt.Printf("failures: crash=%q%s partition=%q\n", *crash, omission, *partition)
	}
	fmt.Println()
	if res.QuiescentAtRound >= 0 {
		fmt.Printf("quiescent at       %.1f rtd (round %d)\n", sim.StartOfRound(res.QuiescentAtRound).RTD(), res.QuiescentAtRound)
	} else {
		fmt.Printf("quiescent at       never (ran %d rounds)\n", res.Rounds)
	}
	fmt.Printf("mean delay D       %.3f rtd (p95 %.3f, max %.3f, %d samples)\n",
		c.Delay.MeanRTD(), c.Delay.PercentileRTD(95), c.Delay.MaxRTD(), c.Delay.Count())
	fmt.Printf("history peak       %.0f messages (mean-series peak %.0f)\n", c.HistMax.Max(), c.HistMean.Max())
	fmt.Printf("waiting peak       %.0f messages\n", c.WaitMax.Max())

	loadRep := c.Net().Load()
	fmt.Printf("network load       %s\n", loadRep)
	fmt.Printf("control traffic    %d msgs (%.1f per subrun), %d bytes\n",
		loadRep.ControlMsgs(), float64(loadRep.ControlMsgs())/float64(*subruns), loadRep.ControlBytes())
	fmt.Printf("drops injected     %d\n", c.Net().Drops())

	totalRecov, totalRetrans, totalDiscard := 0, 0, 0
	for i := 0; i < c.N(); i++ {
		p := c.Proc(mid.ProcID(i))
		totalRecov += p.Stats.Recoveries
		totalRetrans += p.Stats.Retransmits
		totalDiscard += p.Stats.Discarded
	}
	fmt.Printf("recoveries         %d requested, %d answered, %d discards\n", totalRecov, totalRetrans, totalDiscard)
	fmt.Printf("mean pdu sizes     request %.0fB decision %.0fB data %.0fB\n",
		loadRep.MeanSize(wire.KindRequest), loadRep.MeanSize(wire.KindDecision), loadRep.MeanSize(wire.KindData))

	fmt.Printf("active at end      %v\n", c.ActiveSet())
	if len(c.Left) > 0 {
		fmt.Printf("self-excluded      %v\n", c.Left)
	}
	for _, p := range c.ActiveSet() {
		fmt.Printf("  proc %-3d processed=%d history=%d view=%s\n",
			p, c.Proc(p).Processed().Sum(), c.Proc(p).HistoryLen(), c.Proc(p).View())
		break // one representative line; survivors are identical at quiescence
	}
}

// buildInjector composes the failure model the flags describe over a group
// of n; nil means a reliable run. Every error names the flag at fault.
func buildInjector(n int, crash string, omit, omitUntil int, partition string) (faultrt.Injector, error) {
	var inj faultrt.Multi
	if crash != "" {
		for _, part := range strings.Split(crash, ",") {
			bits := strings.Split(strings.TrimSpace(part), "@")
			if len(bits) != 2 {
				return nil, fmt.Errorf("-crash: bad spec %q (want proc@subrun)", part)
			}
			proc, err := member(bits[0], n)
			if err != nil {
				return nil, fmt.Errorf("-crash: %v", err)
			}
			at, err := strconv.Atoi(bits[1])
			if err != nil || at < 0 {
				return nil, fmt.Errorf("-crash: bad subrun %q (want a subrun >= 0)", bits[1])
			}
			inj = append(inj, faultrt.CrashAt{Proc: proc, At: sim.StartOfSubrun(at).Duration()})
		}
	}
	if omit > 0 {
		var om faultrt.Injector = &faultrt.DropEvery{N: omit, Side: faultrt.AtSend}
		if omitUntil > 0 {
			om = faultrt.During{From: 0, To: (sim.Time(omitUntil) * sim.TicksPerRTD).Duration(), Inner: om}
		}
		inj = append(inj, om)
	}
	if partition != "" {
		p, err := parsePartition(partition, n)
		if err != nil {
			return nil, fmt.Errorf("-partition: %v", err)
		}
		inj = append(inj, p)
	}
	if len(inj) == 0 {
		return nil, nil
	}
	return inj, nil
}

// parsePartition reads "0,1,2@6-10": side-A members of a group of n, cut
// from subrun 6 to subrun 10 (exclusive).
func parsePartition(spec string, n int) (faultrt.Partition, error) {
	parts := strings.Split(spec, "@")
	if len(parts) != 2 {
		return faultrt.Partition{}, fmt.Errorf("bad spec %q (want members@from-to)", spec)
	}
	side := map[mid.ProcID]bool{}
	for _, m := range strings.Split(parts[0], ",") {
		p, err := member(m, n)
		if err != nil {
			return faultrt.Partition{}, err
		}
		side[p] = true
	}
	rng := strings.Split(parts[1], "-")
	if len(rng) != 2 {
		return faultrt.Partition{}, fmt.Errorf("bad window %q (want from-to)", parts[1])
	}
	from, errFrom := strconv.Atoi(rng[0])
	to, errTo := strconv.Atoi(rng[1])
	if errFrom != nil || errTo != nil || from < 0 || from >= to {
		return faultrt.Partition{}, fmt.Errorf("bad window %q (want subruns 0 <= from < to)", parts[1])
	}
	return faultrt.Partition{
		From:  sim.StartOfSubrun(from).Duration(),
		To:    sim.StartOfSubrun(to).Duration(),
		SideA: side,
	}, nil
}

// member parses a process identifier of a group of n.
func member(s string, n int) (mid.ProcID, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || v < 0 || v >= n {
		return 0, fmt.Errorf("bad member %q (want a process in [0, %d))", s, n)
	}
	return mid.ProcID(v), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "urcgc-sim:", err)
	os.Exit(1)
}
