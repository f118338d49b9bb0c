package cbcast

import (
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
)

// ClusterConfig configures a simulated CBCAST group.
type ClusterConfig struct {
	Config
	Seed     int64
	Injector faultrt.Injector
}

// Cluster runs a CBCAST group on the simnet.Host the urcgc cluster runs on,
// so the experiments drive both identically. Its Log is the delivery order
// per process. CBCAST assumes a reliable transport underneath (the paper
// calls this out as a urcgc advantage), so drive it with crash-only failure
// models.
type Cluster struct {
	*simnet.Host[*Process]

	// ViewInstalls records (time, epoch) pairs per process.
	ViewInstalls []map[int32]sim.Time
}

// NewCluster builds a CBCAST group of cc.N processes.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Host:         simnet.NewHost[*Process](cc.Seed, cc.N, cc.Injector),
		ViewInstalls: make([]map[int32]sim.Time, cc.N),
	}
	for i := 0; i < cc.N; i++ {
		id := mid.ProcID(i)
		c.ViewInstalls[i] = make(map[int32]sim.Time)
		cb := Callbacks{
			OnDeliver: func(m *Data) {
				c.Processed(id, mid.MID{Proc: m.Sender, Seq: mid.Seq(m.TS[m.Sender])})
			},
			OnViewInstalled: func(epoch int32, _ []bool) {
				c.ViewInstalls[id][epoch] = c.Engine().Now()
			},
		}
		p, err := NewProcess(id, cc.Config, c.Net().Endpoint(id), cb)
		if err != nil {
			return nil, err
		}
		c.Attach(id, p)
	}
	return c, nil
}

// Submit queues a payload at p and records its generation time.
func (c *Cluster) Submit(p mid.ProcID, payload []byte) mid.MID {
	id := c.Proc(p).Submit(payload)
	c.Generated(id)
	return id
}

// Run drives the cluster for maxRounds rounds, invoking onRound first at
// every round.
func (c *Cluster) Run(maxRounds int, onRound func(round int)) error {
	return c.Rounds(maxRounds, onRound, nil)
}

// AgreementRTD returns, for the given epoch, the time from failAt to the
// moment the LAST live process installed the view — the Figure 5 T for
// CBCAST — or -1 if some live process never installed it or none is live.
func (c *Cluster) AgreementRTD(epoch int32, failAt sim.Time) float64 {
	var worst sim.Time = -1
	for i := 0; i < c.N(); i++ {
		if c.Crashed(mid.ProcID(i)) {
			continue
		}
		at, ok := c.ViewInstalls[i][epoch]
		if !ok {
			return -1
		}
		if at > worst {
			worst = at
		}
	}
	if worst < 0 {
		return -1
	}
	return (worst - failAt).RTD()
}
