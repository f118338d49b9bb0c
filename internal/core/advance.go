package core

import (
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// Subrun numbers. The clock numbers its subruns T = 0, 1, 2, ... by time;
// Advance numbers the subruns it opens inside clock subrun T as (T, k),
// k >= 1, and the clock's own is (T, 0). One int64 carries both — on the wire
// and in every record — as T | k<<earlyShift, ordered by T, then k.
const (
	earlyShift = 44
	clockMask  = 1<<earlyShift - 1
	// maxEarly bounds k: Advance never opens (T, maxEarly), so a subrun
	// number carrying an early index that large — or a negative one — is
	// malformed.
	maxEarly = 1<<(63-earlyShift) - 1
)

// SplitSubrun returns the clock subrun T and the early index k of subrun
// number s: k is 0 for the clock's own subrun.
func SplitSubrun(s int64) (clock, early int64) { return s & clockMask, s >> earlyShift }

// validSubrun reports whether s is a number some member may open.
func validSubrun(s int64) bool { return s >= 0 && s>>earlyShift < maxEarly }

// laterSubrun is the one freshness comparator: whether subrun a comes after
// subrun b. Both must be valid.
func laterSubrun(a, b int64) bool {
	return (a&clockMask)<<(63-earlyShift)|a>>earlyShift > (b&clockMask)<<(63-earlyShift)|b>>earlyShift
}

// sameClock reports whether subruns a and b lie in the same clock period.
func sameClock(a, b int64) bool { return a&clockMask == b&clockMask }

// nextSubrun reports whether s is a subrun this process may open next: the
// early one after its current subrun, or the next clock subrun.
func (p *Process) nextSubrun(s int64) bool {
	t, _ := SplitSubrun(p.subrun)
	return s == p.subrun+1<<earlyShift || s == t+1
}

// Advance lets arrivals pace agreement. The live runtime calls it after every
// event the process handles — a delivered PDU, a submission, a tick — and
// then:
//
//   - the coordinator of the current subrun decides as soon as its request
//     table holds every believed-alive member's REQUEST, instead of waiting
//     for the odd tick, which stays the deadline;
//   - a member that holds the decision of its current subrun opens the next
//     one, (T, k+1), at once if it is in step (running, admitted, nothing
//     waiting, no recovery failure outstanding) and agreement has work (a
//     queued message, or one processed here that is not yet stable).
//
// An idle group, and a group with a member out of step, therefore tick as
// the clock paces them. Every per-subrun bound — BatchMax messages, the
// flow-control valve checked at the opening, Lemma 4.1/4.2 — holds per
// subrun; only the number of subruns per second changes. Fault detection
// stays on the clock's subruns: an early decision has every report, so it
// counts no one silent, and an early subrun that cannot gather every report
// is abandoned at the next tick without counting anything. StartRound alone
// never opens an early subrun, which is what keeps the simulator lockstep.
func (p *Process) Advance() {
	if !p.running || p.joining {
		return
	}
	p.decideEarly()
	if _, k := SplitSubrun(p.subrun); !p.running || !p.decisionThisSub || k+1 >= maxEarly ||
		p.wait.Len() > 0 || p.recoveryFailures > 0 || !p.hasWork() {
		return
	}
	p.Stats.EarlySubruns++
	p.openSubrun(p.subrun + 1<<earlyShift)
	p.decideEarly() // the early row may have completed the table already
}

// decideEarly decides the current subrun if this process coordinates it, it
// is undecided here, and every believed-alive member has reported.
func (p *Process) decideEarly() {
	if p.decisionThisSub || p.coordinator(p.subrun) != p.id || !p.tableFull() {
		return
	}
	p.decide()
}

// tableFull reports whether the request table holds a report from every
// member alive in the view computeDecision will start from: the previous
// decision's mask when there is one. So an early decision observes nobody
// silent — it can reset a silence counter, never raise one.
func (p *Process) tableFull() bool {
	prev := p.prevDecision()
	for q, heard := range p.heard {
		alive := p.view.Alive(mid.ProcID(q))
		if prev != nil {
			alive = prev.Alive[q]
		}
		if alive && !heard {
			return false
		}
	}
	return true
}

// hasWork reports whether agreement has something to do here: a queued
// message, or a processed one that is not yet stable.
func (p *Process) hasWork() bool {
	return len(p.outbox) > 0 || !p.lastClean.Equal(p.tracker.Processed())
}

// prevDecision is the freshest decision a coordinator continues from: its
// own, or the one foldPrev kept of those the requests carried.
func (p *Process) prevDecision() *wire.Decision {
	if p.reqPrev != nil && (p.lastDec == nil || laterSubrun(p.reqPrev.Subrun, p.lastDec.Subrun)) {
		return p.reqPrev
	}
	return p.lastDec
}
