package experiments

import (
	"fmt"
	"sort"
	"strings"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// Breakdown is the per-stage latency table of a simulated run, in virtual
// RTD units — the simulator counterpart of the live lifecycle.Tracer's
// histograms. It reproduces the delivery-latency breakdown tables of the
// CBCAST and Psync evaluations for this protocol: where between emission and
// uniform coverage a message spends its rounds.
type Breakdown struct {
	// Messages is how many generated messages the run accounts for.
	Messages int
	// MeanEmitToBroadcast is generate→broadcast: outbox residence, i.e.
	// round alignment plus Section 6 flow control.
	MeanEmitToBroadcast float64
	// MeanEmitToFirstProcess is generate→first processing anywhere (the
	// origin processes its own message at broadcast, so this usually
	// equals MeanEmitToBroadcast; it differs when the origin crashes).
	MeanEmitToFirstProcess float64
	// MeanEmitToUniform is generate→processed at every survivor — the
	// operational uniform-atomicity latency (Definition 3.2). Only
	// messages every survivor processed contribute.
	MeanEmitToUniform float64
	// P99EmitToUniform is the 99th percentile of the same distribution.
	P99EmitToUniform float64
	// UniformCount is how many messages reached every survivor.
	UniformCount int
	// MeanWait and P99Wait describe waiting-list residence: a message
	// parking in a process's waiting list → that process processing it.
	MeanWait float64
	P99Wait  float64
	// WaitCount is how many (process, message) pairs ever waited.
	WaitCount int
	// Discarded is how many messages were destroyed by agreement anywhere.
	Discarded int
}

// Render formats the breakdown as an aligned table (RTD units).
func (b Breakdown) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stage breakdown (%d messages, RTD units)\n", b.Messages)
	fmt.Fprintf(&sb, "  %-28s %8.3f\n", "emit -> broadcast (mean)", b.MeanEmitToBroadcast)
	fmt.Fprintf(&sb, "  %-28s %8.3f\n", "emit -> first process (mean)", b.MeanEmitToFirstProcess)
	fmt.Fprintf(&sb, "  %-28s %8.3f  (n=%d)\n", "emit -> uniform (mean)", b.MeanEmitToUniform, b.UniformCount)
	fmt.Fprintf(&sb, "  %-28s %8.3f\n", "emit -> uniform (p99)", b.P99EmitToUniform)
	fmt.Fprintf(&sb, "  %-28s %8.3f  (n=%d)\n", "waitlist residence (mean)", b.MeanWait, b.WaitCount)
	fmt.Fprintf(&sb, "  %-28s %8.3f\n", "waitlist residence (p99)", b.P99Wait)
	fmt.Fprintf(&sb, "  %-28s %8d\n", "discarded", b.Discarded)
	return sb.String()
}

// StageBreakdown runs the per-stage latency scenario at seed 1 and computes
// its stage table: n=10 at full load, submitted on odd rounds so the outbox
// stage is visible (a message waits for the next subrun boundary), and a
// 1-in-50 send omission makes the waiting-list stage real: a dropped data
// message parks its sender's next message until recovery fills the gap.
func StageBreakdown() (Breakdown, error) {
	st := newStages()
	c, err := core.NewCluster(core.ClusterConfig{
		Config:   core.Config{N: 10, K: 3, R: 8, SelfExclusion: true},
		Seed:     1,
		Injector: &faultrt.DropEvery{N: 50, Side: faultrt.AtSend},
		Observe: func(c *core.Cluster, p mid.ProcID) core.Callbacks {
			return st.observe(c.Engine().Now, p)
		},
	})
	if err != nil {
		return Breakdown{}, err
	}
	_, err = c.Run(core.RunOptions{
		MaxRounds: 2*60 + 200, MinRounds: 2 * 60,
		OnRound: func(round int) {
			if round%2 != 1 || round/2 >= 60 {
				return
			}
			for _, p := range c.ActiveSet() {
				_, _ = c.Submit(p, payload(), nil)
			}
		},
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		return Breakdown{}, err
	}
	return st.breakdown(c.ActiveSet()), nil
}

// stages collects, through a cluster's Observe, the instants a Breakdown is
// computed from.
type stages struct {
	generated map[mid.MID]sim.Time
	broadcast map[mid.MID]sim.Time
	firstProc map[mid.MID]sim.Time
	processed map[procMsg]sim.Time
	waitAt    map[procMsg]sim.Time // parked and not yet processed
	waits     []float64
	discarded map[mid.MID]bool
}

// procMsg is message m at process p.
type procMsg struct {
	p mid.ProcID
	m mid.MID
}

func newStages() *stages {
	return &stages{
		generated: map[mid.MID]sim.Time{},
		broadcast: map[mid.MID]sim.Time{},
		firstProc: map[mid.MID]sim.Time{},
		processed: map[procMsg]sim.Time{},
		waitAt:    map[procMsg]sim.Time{},
		discarded: map[mid.MID]bool{},
	}
}

// observe returns process p's hooks, which read the instant from now.
func (s *stages) observe(now func() sim.Time, p mid.ProcID) core.Callbacks {
	first := func(at map[mid.MID]sim.Time, m mid.MID) {
		if _, dup := at[m]; !dup {
			at[m] = now()
		}
	}
	return core.Callbacks{
		OnGenerate:  func(m *causal.Message) { first(s.generated, m.ID) },
		OnBroadcast: func(m *causal.Message) { first(s.broadcast, m.ID) },
		OnWait: func(m *causal.Message, _ mid.DepList) {
			if _, dup := s.waitAt[procMsg{p, m.ID}]; !dup {
				s.waitAt[procMsg{p, m.ID}] = now()
			}
		},
		OnProcess: func(m *causal.Message) {
			k := procMsg{p, m.ID}
			first(s.firstProc, m.ID)
			s.processed[k] = now()
			if at, ok := s.waitAt[k]; ok {
				s.waits = append(s.waits, (now() - at).RTD())
				delete(s.waitAt, k)
			}
		},
		OnDiscard: func(m *causal.Message) { s.discarded[m.ID] = true },
	}
}

// breakdown computes the table, with uniform coverage over survivors.
func (s *stages) breakdown(survivors []mid.ProcID) Breakdown {
	var bcast, first, uniform []float64
	for m, g := range s.generated {
		if at, ok := s.broadcast[m]; ok {
			bcast = append(bcast, (at - g).RTD())
		}
		if at, ok := s.firstProc[m]; ok {
			first = append(first, (at - g).RTD())
		}
		last, covered := g, len(survivors) > 0
		for _, p := range survivors {
			at, ok := s.processed[procMsg{p, m}]
			last, covered = max(last, at), covered && ok
		}
		if covered {
			uniform = append(uniform, (last - g).RTD())
		}
	}
	b := Breakdown{Messages: len(s.generated), UniformCount: len(uniform), WaitCount: len(s.waits), Discarded: len(s.discarded)}
	b.MeanEmitToBroadcast, _ = meanP99(bcast)
	b.MeanEmitToFirstProcess, _ = meanP99(first)
	b.MeanEmitToUniform, b.P99EmitToUniform = meanP99(uniform)
	b.MeanWait, b.P99Wait = meanP99(s.waits)
	return b
}

// meanP99 returns the mean and an upper-bound p99 of the samples.
func meanP99(xs []float64) (mean, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	sort.Float64s(xs)
	idx := min((99*len(xs)+99)/100, len(xs))
	return sum / float64(len(xs)), xs[idx-1]
}
