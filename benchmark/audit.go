package main

import (
	"fmt"
	"sync/atomic"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// streamAudit checks one member's indication stream against Definition 3.1
// as it arrives, in O(n) memory: a message may be indicated only directly
// after its sequence predecessor and after every declared dependency.
// Because that makes every sequence a gap-free prefix, two members
// processed the same message set exactly when their last vectors are
// equal, which is how atomicViolations checks Definition 3.2 afterwards.
//
// faultrt.Checker remains the oracle (TestStreamAuditAgreesWithChecker, and
// every workload but mesh_cpu feeds it too); it keeps every processing
// event, which mesh_cpu's ~550k indications a second would turn into a
// ten-million-entry log and minutes of Check.
//
// One consumer goroutine owns each streamAudit; only count is read
// concurrently.
type streamAudit struct {
	last     mid.SeqVector
	count    atomic.Int64
	breaches int
	first    []string // the first few breaches, for the report
}

func newStreamAudit(n int) *streamAudit { return &streamAudit{last: mid.NewSeqVector(n)} }

func (a *streamAudit) breach(node int, m mid.MID, detail string) {
	a.breaches++
	if len(a.first) < 5 {
		a.first = append(a.first, fmt.Sprintf("uniform-ordering: node %d, %v: %s", node, m, detail))
	}
}

func (a *streamAudit) record(node int, m *causal.Message) {
	a.count.Add(1)
	p := int(m.ID.Proc)
	if p < 0 || p >= len(a.last) {
		a.breach(node, m.ID, "sender outside the group")
		return
	}
	if want := a.last[p] + 1; m.ID.Seq != want {
		a.breach(node, m.ID, fmt.Sprintf("expected seq %d of this sequence next (duplicate or predecessor missing)", want))
	}
	for _, d := range m.Deps {
		if q := int(d.Proc); q < 0 || q >= len(a.last) || a.last[q] < d.Seq {
			a.breach(node, m.ID, fmt.Sprintf("dependency %v not processed first", d))
		}
	}
	if m.ID.Seq > a.last[p] {
		a.last[p] = m.ID.Seq
	}
}

// atomicViolations compares the survivors' streams after they have ended:
// every sequence must have been processed to the same point everywhere.
func atomicViolations(streams []*streamAudit, survivors []mid.ProcID) []string {
	var out []string
	for _, s := range survivors[min(1, len(survivors)):] {
		ref := survivors[0]
		for q, seq := range streams[s].last {
			if refSeq := streams[ref].last[q]; seq != refSeq {
				out = append(out, fmt.Sprintf("uniform-atomicity: node %d processed sequence %d to %d, node %d to %d",
					s, q, seq, ref, refSeq))
			}
		}
	}
	return out
}
