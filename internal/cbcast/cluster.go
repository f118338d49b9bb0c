package cbcast

import (
	"fmt"

	"urcgc/internal/faultrt"
	"urcgc/internal/metrics"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/simnet"
	"urcgc/internal/wire"
)

// ClusterConfig configures a simulated CBCAST group.
type ClusterConfig struct {
	Config
	Seed     int64
	Injector faultrt.Injector
	Latency  simnet.Latency
}

// Cluster runs a CBCAST group in the simulator, mirroring the urcgc cluster
// so the experiments drive both identically. CBCAST assumes a reliable
// transport underneath (the paper calls this out as a urcgc advantage), so
// drive it with crash-only failure models.
type Cluster struct {
	cfg   ClusterConfig
	eng   *sim.Engine
	net   *simnet.Network
	procs []*Process

	Delay *metrics.Delay
	// DeliveredLog records delivery order per process as (sender, seq).
	DeliveredLog [][]mid.MID
	// ViewInstalls records (time, epoch) pairs per process.
	ViewInstalls []map[int32]sim.Time
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

// NewCluster builds a CBCAST group of cc.N processes.
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
		ViewInstalls: make([]map[int32]sim.Time, cc.N),
	}
	for i := 0; i < cc.N; i++ {
		id := mid.ProcID(i)
		c.ViewInstalls[i] = make(map[int32]sim.Time)
		cb := Callbacks{
			OnDeliver: func(m *Data) {
				key := mid.MID{Proc: m.Sender, Seq: mid.Seq(m.TS[m.Sender])}
				c.DeliveredLog[id] = append(c.DeliveredLog[id], key)
				c.Delay.Processed(key, eng.Now())
			},
			OnViewInstalled: func(epoch int32, _ []bool) {
				c.ViewInstalls[id][epoch] = eng.Now()
			},
		}
		p, err := NewProcess(id, cc.Config, netTransport{nw: nw, self: id}, cb)
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

// Net returns the network (for load accounting).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Proc returns process i.
func (c *Cluster) Proc(i mid.ProcID) *Process { return c.procs[i] }

// N returns the group cardinality.
func (c *Cluster) N() int { return c.cfg.N }

// Crashed reports whether the failure model has fail-stopped p.
func (c *Cluster) Crashed(p mid.ProcID) bool { return c.net.Crashed(p) }

// Submit queues a payload at p and records generation time against the MID
// the message will carry ((p, current sent count + queued + 1)).
func (c *Cluster) Submit(p mid.ProcID, payload []byte) mid.MID {
	proc := c.procs[p]
	id := mid.MID{Proc: p, Seq: mid.Seq(proc.vt[p]) + mid.Seq(len(proc.outbox)) + 1}
	proc.Submit(payload)
	c.Delay.Generated(id, c.eng.Now())
	return id
}

// Run drives the cluster for maxRounds rounds, invoking onRound first at
// every round.
func (c *Cluster) Run(maxRounds int, onRound func(round int)) error {
	if maxRounds <= 0 {
		return fmt.Errorf("cbcast: maxRounds must be positive")
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

// AgreementRTD returns, for the given epoch, the time from failAt to the
// moment the LAST live process installed the view — the Figure 5 T for
// CBCAST — or NaN if some live process never installed it.
func (c *Cluster) AgreementRTD(epoch int32, failAt sim.Time) float64 {
	var worst sim.Time = -1
	for i := range c.procs {
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
	return (worst - failAt).RTD()
}
