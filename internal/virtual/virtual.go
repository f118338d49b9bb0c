// Package virtual implements the *general* interpretation of Definition
// 3.1: a process may root any number of concurrent sequences of causally
// ordered messages, not just one.
//
// The paper's protocol runs under the intermediate interpretation (one
// sequence per process) and notes that strict adherence to the general
// definition "would lead to the consideration of a tree structured
// history... Nevertheless, this would not affect the algorithm." This
// package realizes exactly that observation without touching the protocol:
// each user-visible stream is mapped to a *virtual member* of a larger
// urcgc group. Virtual members owned by the same real process share its
// fate (they crash together), sequences stay independent unless the
// application labels a dependency, and every URCGC guarantee carries over
// because the underlying group is just a bigger instance of the same
// algorithm.
package virtual

import (
	"fmt"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// StreamID names one of a process's concurrent sequences.
type StreamID struct {
	Owner  mid.ProcID // the real process
	Stream int        // 0-based stream index within the owner
}

// String renders the stream as "p2/s1".
func (s StreamID) String() string { return fmt.Sprintf("p%d/s%d", s.Owner, s.Stream) }

// Mapping fixes the translation between (owner, stream) pairs and the
// virtual member identifiers of the underlying group: owner o's stream s is
// virtual member o*StreamsPerProc + s.
type Mapping struct {
	Procs          int
	StreamsPerProc int
}

// Validate reports mapping errors.
func (m Mapping) Validate() error {
	if m.Procs < 1 || m.StreamsPerProc < 1 {
		return fmt.Errorf("virtual: mapping %d procs x %d streams invalid", m.Procs, m.StreamsPerProc)
	}
	return nil
}

// GroupSize returns the cardinality of the underlying urcgc group.
func (m Mapping) GroupSize() int { return m.Procs * m.StreamsPerProc }

// Virtual returns the virtual member carrying the stream.
func (m Mapping) Virtual(s StreamID) (mid.ProcID, error) {
	if s.Owner < 0 || int(s.Owner) >= m.Procs || s.Stream < 0 || s.Stream >= m.StreamsPerProc {
		return 0, fmt.Errorf("virtual: stream %v outside %dx%d mapping", s, m.Procs, m.StreamsPerProc)
	}
	return mid.ProcID(int(s.Owner)*m.StreamsPerProc + s.Stream), nil
}

// Stream returns the stream carried by a virtual member.
func (m Mapping) Stream(v mid.ProcID) StreamID {
	return StreamID{
		Owner:  mid.ProcID(int(v) / m.StreamsPerProc),
		Stream: int(v) % m.StreamsPerProc,
	}
}

// Owner returns the real process owning a virtual member.
func (m Mapping) Owner(v mid.ProcID) mid.ProcID { return m.Stream(v).Owner }

// MsgID names a message in stream terms.
type MsgID struct {
	Stream StreamID
	Seq    mid.Seq
}

// String renders e.g. "p2/s1#7".
func (id MsgID) String() string { return fmt.Sprintf("%v#%d", id.Stream, id.Seq) }

// Group is a simulated urcgc group under the general interpretation: n real
// processes, each rooting StreamsPerProc concurrent sequences. It wraps a
// core.Cluster of GroupSize virtual members.
type Group struct {
	Mapping Mapping
	C       *core.Cluster
}

// Config configures a virtual group.
type Config struct {
	Mapping
	K, R int
	Seed int64
}

// NewGroup builds the underlying cluster. The wrapped cluster runs
// reliably: fault injection under the virtual construction requires
// crashing all of an owner's members together (they share a machine), so a
// faulty variant must compose one faultrt.CrashAt per virtual member of the
// dying owner, all at the same instant — partial-owner crashes would break
// the shared-fate assumption.
func NewGroup(cfg Config) (*Group, error) {
	if err := cfg.Mapping.Validate(); err != nil {
		return nil, err
	}
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{
			N: cfg.GroupSize(), K: cfg.K, R: cfg.R, SelfExclusion: true,
		},
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Group{Mapping: cfg.Mapping, C: c}, nil
}

// Submit queues a message on one of the owner's streams, depending on the
// listed messages of any other streams (the general Definition 3.1: the
// roots of concurrency are per-sequence, and a process's own streams are
// mutually concurrent unless explicitly related).
//
// One artifact of the virtual-member construction: a dependency — even on a
// sibling stream of the same owner — must already have been processed by
// the submitting stream's virtual member, which happens one subrun after
// the dependency was broadcast. Applications chain across their own
// streams by submitting the dependent message on the next subrun (see the
// package tests).
func (g *Group) Submit(s StreamID, payload []byte, deps []MsgID) (MsgID, error) {
	v, err := g.Mapping.Virtual(s)
	if err != nil {
		return MsgID{}, err
	}
	var raw mid.DepList
	for _, d := range deps {
		dv, err := g.Mapping.Virtual(d.Stream)
		if err != nil {
			return MsgID{}, err
		}
		if dv == v {
			return MsgID{}, fmt.Errorf("virtual: own-stream dependencies are implicit")
		}
		raw = append(raw, mid.MID{Proc: dv, Seq: d.Seq})
	}
	id, err := g.C.Submit(v, payload, raw)
	if err != nil {
		return MsgID{}, err
	}
	return MsgID{Stream: s, Seq: id.Seq}, nil
}

// Processed returns how many messages of stream s the given real process
// has processed (through any of its virtual members — they share state
// per-member; the owner's view is the max across its members, which are
// identical at quiescence).
func (g *Group) Processed(owner mid.ProcID, s StreamID) (mid.Seq, error) {
	v, err := g.Mapping.Virtual(s)
	if err != nil {
		return 0, err
	}
	// Read from the owner's first virtual member.
	first, err := g.Mapping.Virtual(StreamID{Owner: owner, Stream: 0})
	if err != nil {
		return 0, err
	}
	return g.C.Proc(first).Processed()[v], nil
}

// ProcessedLogOf returns the processing order observed by a real process
// (its first virtual member), translated to stream identifiers.
func (g *Group) ProcessedLogOf(owner mid.ProcID) ([]MsgID, error) {
	first, err := g.Mapping.Virtual(StreamID{Owner: owner, Stream: 0})
	if err != nil {
		return nil, err
	}
	log := g.C.ProcessedLog[first]
	out := make([]MsgID, len(log))
	for i, m := range log {
		out[i] = MsgID{Stream: g.Mapping.Stream(m.Proc), Seq: m.Seq}
	}
	return out, nil
}

// Run drives the underlying cluster.
func (g *Group) Run(opts core.RunOptions) (core.RunResult, error) {
	return g.C.Run(opts)
}
