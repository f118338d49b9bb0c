// Package replay turns capture dumps into a deterministic offline re-run
// of the protocol. It ingests every member's frame flight recorder
// (internal/capture), merges the records into one cluster-wide timeline
// joined by (group, MID), and replays each member's delivered ingress
// frames — in capture order — through a fresh core.Process wired to a
// no-op transport. A faultrt.Checker audits the replayed run through
// core.Audit exactly as the live chaos harness audits the live one and
// core.Cluster the simulated one, so a violation seen in production either
// reproduces from the artifact alone or is refuted by it. For every reproduced violation the timeline is searched
// for the blocking frame: the first captured frame carrying the missing
// message whose loss explains the breach — an ingress discard at the
// violating member, an injected fault at the sender, or a broadcast that
// no capture ever saw arrive.
//
// Replay determinism rests on three properties of the runtime:
//
//   - core.Process is purely reactive from Recv: no timers fire inside
//     it, so feeding the captured ingress sequence reproduces the same
//     processing order (the round clock only matters for generating
//     traffic, which replay never does).
//   - a member processes its own broadcast at egress time
//     (broadcastFrame), so the member's own Data/DataBatch/Decision
//     egress records are fed back to it as Recv(self, pdu) in capture
//     order — its side of the history comes from the same artifact.
//   - rings are per-member and strictly sequence-numbered, so one
//     member's feed order is exactly its live event order.
//
// Known limit: rejoin incarnations (a member that died and state-
// transferred back) are replayed as one incarnation; dumps from runs
// with mid-run joins may over-report ordering violations.
package replay

import (
	"fmt"
	"sort"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// nullTransport discards everything a replayed process tries to send:
// its peers' inputs come from their own dumps, not from this replay.
type nullTransport struct{}

func (nullTransport) Send(mid.ProcID, wire.PDU) {}
func (nullTransport) Broadcast(wire.PDU)        {}

// Event is one captured record placed on the cluster timeline.
type Event struct {
	// Node owns the ring the record came from.
	Node mid.ProcID
	// Rec is the record itself.
	Rec *capture.Record
	// AbsNs is the record's absolute wall time (ring start + offset),
	// comparable across members to the hosts' clock sync.
	AbsNs int64
	// PDU is the decoded frame body, nil when the record carries none or
	// the bytes do not decode.
	PDU wire.PDU
}

type midKey struct {
	group uint32
	id    mid.MID
}

// Timeline is the merged cluster-wide view of every dump.
type Timeline struct {
	// Events holds every record of every dump, ordered by AbsNs.
	Events []*Event
	// ByMID joins events carrying a given user message, the cross-node
	// key being (group, MID); within one group a MID names the same
	// message on every member.
	ByMID map[midKey][]*Event
}

// Merge builds the cluster timeline from per-member dumps.
func Merge(dumps []*capture.Dump) *Timeline {
	tl := &Timeline{ByMID: make(map[midKey][]*Event)}
	for _, d := range dumps {
		base := d.StartWall.UnixNano()
		for i := range d.Records {
			rec := &d.Records[i]
			ev := &Event{Node: d.Node, Rec: rec, AbsNs: base + rec.AtNs}
			if len(rec.Frame) > 0 {
				if pdu, err := wire.Unmarshal(rec.Frame); err == nil {
					ev.PDU = pdu
					for _, m := range capture.FrameMIDs(pdu) {
						k := midKey{rec.Group, m}
						tl.ByMID[k] = append(tl.ByMID[k], ev)
					}
				}
			}
			tl.Events = append(tl.Events, ev)
		}
	}
	sort.SliceStable(tl.Events, func(i, j int) bool { return tl.Events[i].AbsNs < tl.Events[j].AbsNs })
	for _, evs := range tl.ByMID {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].AbsNs < evs[j].AbsNs })
	}
	return tl
}

// BlockingFrame names the captured frame whose loss explains a violation.
type BlockingFrame struct {
	// Node owns the ring holding the evidence; Seq is the record's
	// capture sequence there ("capture #N" in the runtime's warn lines).
	Node    int32  `json:"node"`
	Seq     uint64 `json:"seq"`
	Dir     string `json:"dir"`
	Verdict string `json:"verdict"`
	Fault   string `json:"fault,omitempty"`
	Peer    int32  `json:"peer"`
	At      string `json:"at"`
	// Frame summarizes the decoded body (kind, MIDs, subrun).
	Frame capture.FrameInfo `json:"frame"`
	// Reason explains how this frame's fate broke the invariant.
	Reason string `json:"reason"`
}

// Finding is one replay-confirmed violation with its evidence.
type Finding struct {
	// Invariant, Node, MID and Detail restate the checker violation.
	Invariant string `json:"invariant"`
	Node      int32  `json:"node"`
	MID       string `json:"mid"`
	Detail    string `json:"detail"`
	// Blocking is the attributed frame; nil when the message left no
	// frame trace at all (Reason folded into Detail).
	Blocking *BlockingFrame `json:"blocking,omitempty"`
}

// GroupResult is the replay verdict for one group.
type GroupResult struct {
	Group uint32 `json:"group"`
	// Members lists every dump-holding member replayed into this group;
	// Crashed the ones whose ring carries a crash mark; Survivors the
	// members the checker audited (alive at end of replay).
	Members   []int32 `json:"members"`
	Crashed   []int32 `json:"crashed,omitempty"`
	Survivors []int32 `json:"survivors"`
	// Fed counts ingress frames replayed; SelfFed the members' own
	// egress broadcasts fed back; Undecodable the reached frames whose
	// bytes no longer parse (capture corruption — each one weakens the
	// replay's fidelity).
	Fed         int `json:"fed"`
	SelfFed     int `json:"self_fed"`
	Undecodable int `json:"undecodable"`
	// Findings lists the reproduced violations, with blame.
	Findings []Finding `json:"findings,omitempty"`
}

// Result is the whole-cluster replay verdict.
type Result struct {
	Dumps  int           `json:"dumps"`
	Groups []GroupResult `json:"groups"`
	// Clean reports that no group reproduced any violation.
	Clean bool `json:"clean"`
	// First is the earliest blocking frame across all findings: the
	// first captured frame whose loss broke an invariant.
	First *BlockingFrame `json:"first_blocking,omitempty"`
}

// Run replays a set of per-member dumps and audits the result. Dumps
// must come from one run: same group shape, one dump per member.
func Run(dumps []*capture.Dump) (*Result, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("replay: no dumps")
	}
	byNode := make(map[mid.ProcID]*capture.Dump, len(dumps))
	for _, d := range dumps {
		if d.Node < 0 || d.N <= int(d.Node) {
			return nil, fmt.Errorf("replay: dump names member %d of %d", d.Node, d.N)
		}
		if d.N != dumps[0].N {
			return nil, fmt.Errorf("replay: dump shapes disagree: N=%d vs N=%d", d.N, dumps[0].N)
		}
		if byNode[d.Node] != nil {
			return nil, fmt.Errorf("replay: two dumps for member %d", d.Node)
		}
		byNode[d.Node] = d
	}

	tl := Merge(dumps)
	groups := map[uint32]bool{}
	for _, ev := range tl.Events {
		if ev.Rec.Dir != capture.DirMark {
			groups[ev.Rec.Group] = true
		}
	}
	order := make([]uint32, 0, len(groups))
	for g := range groups {
		order = append(order, g)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	res := &Result{Dumps: len(dumps)}
	for _, g := range order {
		gr, err := replayGroup(g, dumps, tl)
		if err != nil {
			return nil, err
		}
		res.Groups = append(res.Groups, *gr)
	}
	res.Clean = true
	for _, gr := range res.Groups {
		for i := range gr.Findings {
			res.Clean = false
			b := gr.Findings[i].Blocking
			if b != nil && (res.First == nil || b.At < res.First.At) {
				res.First = b
			}
		}
	}
	return res, nil
}

// procConfig rebuilds a member's protocol shape from its dump header,
// defaulting the retry parameters when the capturing runtime did not
// stamp them (K, then the paper's R > 2K floor).
func procConfig(d *capture.Dump) core.Config {
	cfg := core.Config{N: d.N, K: d.K, R: d.R, SelfExclusion: d.SelfExclusion}
	if cfg.K <= 0 {
		cfg.K = 2
	}
	if cfg.R <= 2*cfg.K {
		cfg.R = 2*cfg.K + 1
	}
	return cfg
}

// selfFeedKind reports whether a member's own egress broadcast of this
// kind must be fed back to it: the live runtime processes its own
// Data/DataBatch locally at broadcast time, and a coordinator applies
// its own Decision when it ships it — none of these ever appear on the
// member's own ingress.
func selfFeedKind(pdu wire.PDU) bool {
	switch pdu.(type) {
	case *wire.Data, *wire.DataBatch, *wire.Decision:
		return true
	}
	return false
}

// replayGroup re-runs one group from every member's records.
func replayGroup(g uint32, dumps []*capture.Dump, tl *Timeline) (*GroupResult, error) {
	gr := &GroupResult{Group: g}
	ck := faultrt.NewChecker()
	var survivors []mid.ProcID
	for _, d := range dumps {
		node := d.Node
		gr.Members = append(gr.Members, int32(node))
		proc, err := core.NewProcess(node, procConfig(d), nullTransport{}, core.Audit(ck, node))
		if err != nil {
			return nil, fmt.Errorf("replay: member %d: %w", node, err)
		}
		crashed := false
		for i := range d.Records {
			rec := &d.Records[i]
			if rec.Dir == capture.DirMark && rec.Verdict == capture.Crash {
				crashed = true
				break // everything after the mark happened to a dead member
			}
			if rec.Group != g || !rec.Verdict.Reached() || len(rec.Frame) == 0 {
				continue
			}
			pdu, err := wire.Unmarshal(rec.Frame)
			if err != nil {
				gr.Undecodable++
				continue
			}
			switch rec.Dir {
			case capture.DirIngress:
				proc.Recv(rec.Peer, pdu)
				gr.Fed++
			case capture.DirEgress:
				// Only the broadcast record (peer-less, clean) is the
				// member's own processing point; per-destination fault
				// records are blame evidence, not a second delivery.
				if rec.Peer == mid.None && rec.Verdict == capture.Sent && selfFeedKind(pdu) {
					proc.Recv(node, pdu)
					gr.SelfFed++
				}
			}
		}
		if crashed {
			gr.Crashed = append(gr.Crashed, int32(node))
		} else if proc.Running() {
			survivors = append(survivors, node)
			gr.Survivors = append(gr.Survivors, int32(node))
		}
	}
	sort.Slice(gr.Members, func(i, j int) bool { return gr.Members[i] < gr.Members[j] })
	sort.Slice(gr.Survivors, func(i, j int) bool { return gr.Survivors[i] < gr.Survivors[j] })
	for _, v := range ck.Check(survivors) {
		f := Finding{
			Invariant: v.Invariant,
			Node:      int32(v.Node),
			MID:       v.Msg.String(),
			Detail:    v.Detail,
			Blocking:  attribute(g, v, tl, dumps),
		}
		gr.Findings = append(gr.Findings, f)
	}
	return gr, nil
}

// frameView renders one event as blame evidence.
func frameView(ev *Event, reason string) *BlockingFrame {
	b := &BlockingFrame{
		Node:    int32(ev.Node),
		Seq:     ev.Rec.Seq,
		Dir:     ev.Rec.Dir.String(),
		Verdict: ev.Rec.Verdict.String(),
		Peer:    int32(ev.Rec.Peer),
		At:      time.Unix(0, ev.AbsNs).UTC().Format(time.RFC3339Nano),
		Frame:   capture.Summarize(ev.Rec.Frame),
		Reason:  reason,
	}
	if ev.Rec.Fault != 0 {
		b.Fault = ev.Rec.Fault.String()
	}
	return b
}

// attribute searches the timeline for the frame whose loss explains one
// violation: the earliest ingress discard of the message at the violating
// member, else the earliest injected fault that destroyed it en route to
// that member, else the earliest broadcast that no capture saw arrive.
func attribute(g uint32, v faultrt.Violation, tl *Timeline, dumps []*capture.Dump) *BlockingFrame {
	evs := tl.ByMID[midKey{g, v.Msg}]
	if len(evs) == 0 {
		return nil // never captured anywhere: evicted or pre-capture traffic
	}
	var arrived bool
	var firstSent *Event
	for _, ev := range evs {
		switch ev.Rec.Dir {
		case capture.DirIngress:
			if ev.Node != v.Node {
				continue
			}
			if ev.Rec.Verdict.Reached() {
				arrived = true
				continue
			}
			return frameView(ev, fmt.Sprintf(
				"carried %v to member %d but was discarded at ingress (%s)",
				v.Msg, v.Node, ev.Rec.Verdict))
		case capture.DirEgress:
			if !ev.Rec.Verdict.Reached() && ev.Rec.Peer == v.Node {
				return frameView(ev, fmt.Sprintf(
					"destroyed in flight from member %d to member %d (%s, fault %s)",
					ev.Node, v.Node, ev.Rec.Verdict, ev.Rec.Fault))
			}
			if ev.Rec.Verdict.Reached() && firstSent == nil {
				firstSent = ev
			}
		}
	}
	if arrived {
		// The frame reached the member; the breach is not a lost frame
		// (ordering violations land here when the dependency arrived).
		return nil
	}
	if firstSent != nil {
		evicted := uint64(0)
		for _, d := range dumps {
			if d.Node == v.Node {
				evicted = d.Evicted
			}
		}
		note := ""
		if evicted > 0 {
			note = fmt.Sprintf(" (member %d's ring evicted %d records — arrival may predate its window)", v.Node, evicted)
		}
		return frameView(firstSent, fmt.Sprintf(
			"broadcast by member %d but no capture ever saw it reach member %d%s",
			firstSent.Node, v.Node, note))
	}
	return nil
}
