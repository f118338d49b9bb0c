package psync

import (
	"fmt"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/metrics"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
	"urcgc/internal/wire"
)

// ClusterConfig configures a simulated Psync conversation.
type ClusterConfig struct {
	Config
	Seed     int64
	Injector faultrt.Injector
	Latency  simnet.Latency
}

// Cluster runs a Psync group in the simulator.
type Cluster struct {
	cfg   ClusterConfig
	eng   *sim.Engine
	net   *simnet.Network
	procs []*Process

	Delay        *metrics.Delay
	DeliveredLog [][]mid.MID
}

type netTransport struct {
	nw   *simnet.Network
	self mid.ProcID
}

func (t netTransport) Send(dst mid.ProcID, pdu wire.PDU) { t.nw.Send(t.self, dst, pdu) }

func (t netTransport) Broadcast(pdu wire.PDU) {
	for dst := 0; dst < t.nw.N(); dst++ {
		t.nw.Send(t.self, mid.ProcID(dst), pdu)
	}
}

// NewCluster builds a Psync group of cc.N processes.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cc.Seed)
	nw := simnet.New(eng, cc.N, cc.Injector)
	if cc.Latency != nil {
		nw.SetLatency(cc.Latency)
	}
	c := &Cluster{
		cfg:          cc,
		eng:          eng,
		net:          nw,
		procs:        make([]*Process, cc.N),
		Delay:        metrics.NewDelay(),
		DeliveredLog: make([][]mid.MID, cc.N),
	}
	for i := 0; i < cc.N; i++ {
		id := mid.ProcID(i)
		p, err := NewProcess(id, cc.Config, netTransport{nw: nw, self: id}, Callbacks{
			OnDeliver: func(m *causal.Message) {
				c.DeliveredLog[id] = append(c.DeliveredLog[id], m.ID)
				c.Delay.Processed(m.ID, eng.Now())
			},
		})
		if err != nil {
			return nil, err
		}
		c.procs[i] = p
		nw.Attach(id, p)
	}
	return c, nil
}

// Engine returns the event engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Net returns the network.
func (c *Cluster) Net() *simnet.Network { return c.net }

// Proc returns process i.
func (c *Cluster) Proc(i mid.ProcID) *Process { return c.procs[i] }

// N returns the group cardinality.
func (c *Cluster) N() int { return c.cfg.N }

// Crashed reports whether the failure model has fail-stopped p.
func (c *Cluster) Crashed(p mid.ProcID) bool { return c.net.Crashed(p) }

// Submit queues a payload at p, recording generation time.
func (c *Cluster) Submit(p mid.ProcID, payload []byte) mid.MID {
	proc := c.procs[p]
	id := mid.MID{Proc: p, Seq: proc.nextSeq + mid.Seq(len(proc.outbox)) + 1}
	proc.Submit(payload)
	c.Delay.Generated(id, c.eng.Now())
	return id
}

// Run drives the cluster for maxRounds rounds.
func (c *Cluster) Run(maxRounds int, onRound func(round int)) error {
	if maxRounds <= 0 {
		return fmt.Errorf("psync: maxRounds must be positive")
	}
	sim.NewTicker(c.eng, func(round int) bool {
		if round >= maxRounds {
			return false
		}
		if onRound != nil {
			onRound(round)
		}
		for i, p := range c.procs {
			if c.Crashed(mid.ProcID(i)) {
				continue
			}
			p.StartRound(round)
		}
		return true
	})
	c.eng.Run()
	return nil
}
