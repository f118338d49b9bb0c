// Package group implements the local group view of the urcgc protocol and
// the attempts-counter bookkeeping coordinators use to declare crashes.
//
// Knowledge about the group is only ever acquired through communication: a
// coordinator that fails to hear from a process for K consecutive non-crashed
// coordinators' subruns declares it crashed and removes it from the group;
// the attempts counters ride inside the circulated decision, so successive
// coordinators resume each other's counting. A process that discovers it has
// been declared crashed commits suicide; one that fails to hear K
// consecutive coordinators leaves autonomously.
package group

import (
	"fmt"

	"urcgc/internal/mid"
)

// View is a process's local knowledge of the group composition. The zero
// value is unusable; construct with NewView.
type View struct {
	alive []bool
	count int
}

// NewView returns a view in which all n processes are alive.
func NewView(n int) *View {
	v := &View{alive: make([]bool, n), count: n}
	for i := range v.alive {
		v.alive[i] = true
	}
	return v
}

// N returns the group cardinality (live and crashed members).
func (v *View) N() int { return len(v.alive) }

// Alive reports whether process i is believed alive.
func (v *View) Alive(i mid.ProcID) bool {
	return i >= 0 && int(i) < len(v.alive) && v.alive[i]
}

// AliveCount returns the number of processes believed alive.
func (v *View) AliveCount() int { return v.count }

// MarkCrashed removes process i from the view. Removing an already-removed
// process is a no-op. It returns true if the view changed.
func (v *View) MarkCrashed(i mid.ProcID) bool {
	if !v.Alive(i) {
		return false
	}
	v.alive[i] = false
	v.count--
	return true
}

// AliveSet returns the identifiers of the processes believed alive, in
// ascending order.
func (v *View) AliveSet() []mid.ProcID {
	out := make([]mid.ProcID, 0, v.count)
	for i, a := range v.alive {
		if a {
			out = append(out, mid.ProcID(i))
		}
	}
	return out
}

// AliveMask returns a copy of the alive flags, indexed by ProcID. This is
// the representation carried inside decisions.
func (v *View) AliveMask() []bool {
	return append([]bool(nil), v.alive...)
}

// MarkAlive re-admits process i into the view — the coordinator-side half
// of a join decision. Re-admitting an already-alive process is a no-op. It
// returns true if the view changed.
func (v *View) MarkAlive(i mid.ProcID) bool {
	if i < 0 || int(i) >= len(v.alive) || v.alive[i] {
		return false
	}
	v.alive[i] = true
	v.count++
	return true
}

// ApplyMask intersects the view with a mask received in a decision: any
// process the decision declares crashed is removed locally. Processes the
// decision believes alive but the local view has removed stay removed —
// local knowledge of a crash is never retracted (crashes are permanent under
// fail-stop). It returns the processes newly removed.
func (v *View) ApplyMask(mask []bool) []mid.ProcID {
	var removed []mid.ProcID
	for i := range v.alive {
		if i < len(mask) && !mask[i] && v.alive[i] {
			v.alive[i] = false
			v.count--
			removed = append(removed, mid.ProcID(i))
		}
	}
	return removed
}

// Adopt replaces the view with a decision's alive mask, in both directions:
// members the decision declares crashed are removed AND members it admits
// (a joiner entering through decision circulation) are restored. The
// decision is authoritative because callers gate on subrun ordering — a
// stale decision never reaches Adopt — and because a truly crashed member
// that was wrongly resurrected is re-declared within K subruns by the same
// silence counting that declared it the first time. It returns the members
// removed and the members added.
func (v *View) Adopt(mask []bool) (removed, added []mid.ProcID) {
	for i := range v.alive {
		if i >= len(mask) {
			break
		}
		switch {
		case !mask[i] && v.alive[i]:
			v.alive[i] = false
			v.count--
			removed = append(removed, mid.ProcID(i))
		case mask[i] && !v.alive[i]:
			v.alive[i] = true
			v.count++
			added = append(added, mid.ProcID(i))
		}
	}
	return removed, added
}

// Equal reports whether two views agree on every member.
func (v *View) Equal(o *View) bool {
	if len(v.alive) != len(o.alive) {
		return false
	}
	for i := range v.alive {
		if v.alive[i] != o.alive[i] {
			return false
		}
	}
	return true
}

// String renders the view as e.g. "{0,1,3}/4".
func (v *View) String() string {
	s := "{"
	first := true
	for i, a := range v.alive {
		if !a {
			continue
		}
		if !first {
			s += ","
		}
		s += fmt.Sprint(i)
		first = false
	}
	return fmt.Sprintf("%s}/%d", s, len(v.alive))
}

// Attempts tracks, per process, how many consecutive subruns the process has
// failed to communicate with a (non-crashed) coordinator. The counters are
// carried inside decisions so each coordinator resumes its predecessor's
// count; when a counter reaches K the process is declared crashed.
type Attempts struct {
	counts []uint8
	k      int
}

// NewAttempts returns zeroed counters for n processes with crash threshold k.
func NewAttempts(n, k int) *Attempts {
	return &Attempts{counts: make([]uint8, n), k: k}
}

// K returns the crash-declaration threshold.
func (a *Attempts) K() int { return a.k }

// CopyTo copies the counters into dst, for embedding into a decision.
func (a *Attempts) CopyTo(dst []uint8) { copy(dst, a.counts) }

// Reset zeroes the counters, so one Attempts can serve every subrun a
// coordinator folds instead of being rebuilt for each.
func (a *Attempts) Reset() { clear(a.counts) }

// Load replaces the counters with those from a circulated decision. Short
// input leaves the tail untouched.
func (a *Attempts) Load(counts []uint8) {
	copy(a.counts, counts)
}

// Observe updates the counters for one subrun: heard[i] true means process i
// communicated with the coordinator this subrun (counter resets), false
// means it stayed silent (counter increments). Processes already declared
// crashed in view are skipped. It returns the processes whose counter
// reached K this subrun — the newly declared crashes.
func (a *Attempts) Observe(heard []bool, view *View) []mid.ProcID {
	var crashed []mid.ProcID
	for i := range a.counts {
		p := mid.ProcID(i)
		if !view.Alive(p) {
			continue
		}
		if i < len(heard) && heard[i] {
			a.counts[i] = 0
			continue
		}
		if int(a.counts[i]) < a.k {
			a.counts[i]++
		}
		if int(a.counts[i]) >= a.k {
			crashed = append(crashed, p)
		}
	}
	return crashed
}

// Resilience returns the maximum number of per-subrun failures t = (n-1)/2
// under which the reliable circulation of decisions is guaranteed
// (Section 4 of the paper).
func Resilience(n int) int {
	if n <= 1 {
		return 0
	}
	return (n - 1) / 2
}
