package psync

import (
	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/simnet"
)

// ClusterConfig configures a simulated Psync conversation.
type ClusterConfig struct {
	Config
	Seed     int64
	Injector faultrt.Injector
}

// Cluster runs a Psync group on the simnet.Host the urcgc cluster runs on.
// Its Log is the delivery order per process.
type Cluster struct {
	*simnet.Host[*Process]
}

// NewCluster builds a Psync group of cc.N processes.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{simnet.NewHost[*Process](cc.Seed, cc.N, cc.Injector)}
	for i := 0; i < cc.N; i++ {
		id := mid.ProcID(i)
		p, err := NewProcess(id, cc.Config, c.Net().Endpoint(id), Callbacks{
			OnDeliver: func(m *causal.Message) { c.Processed(id, m.ID) },
		})
		if err != nil {
			return nil, err
		}
		c.Attach(id, p)
	}
	return c, nil
}

// Submit queues a payload at p, recording its generation time.
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
