// Package mid defines message identifiers and causal dependency labels for
// the urcgc protocol.
//
// Every message in the system is uniquely identified by a MID: the identity
// of the process that generated it and a per-process progressive sequence
// number. Under the paper's "intermediate interpretation" of causality
// (Section 3 of Aiello/Pagani/Rossi 1993), each process roots exactly one
// sequence of causally ordered messages, so the pair (process, seq) both
// identifies a message and locates it inside its sequence. A message
// additionally carries the list of MIDs it causally depends on; that list is
// modelled here as a DepList.
package mid

import (
	"cmp"
	"fmt"
	"slices"
)

// ProcID identifies a process in the group. Processes are numbered 0..n-1.
// The zero value is a valid process identifier; use None for "no process".
type ProcID int32

// None is the sentinel "no process" value used in decision fields such as
// most_updated when no process is known to hold a message.
const None ProcID = -1

// Seq is the progressive order a process assigns to its own messages.
// Sequence numbers start at 1; 0 means "no message" (for example,
// last_processed[j] == 0 means no message from p_j has been processed yet).
type Seq uint32

// MID uniquely identifies a message: the Proc that generated it and the
// progressive Seq the generator assigned. The zero MID (Proc 0, Seq 0) is
// not a valid message identifier; IsZero reports that case.
type MID struct {
	Proc ProcID
	Seq  Seq
}

// IsZero reports whether m is the zero MID, i.e. not a real message.
func (m MID) IsZero() bool { return m.Seq == 0 }

// Prev returns the identifier of the message that immediately precedes m in
// its sequence, or the zero MID if m is the first of its sequence.
func (m MID) Prev() MID {
	if m.Seq <= 1 {
		return MID{}
	}
	return MID{Proc: m.Proc, Seq: m.Seq - 1}
}

// Next returns the identifier of the message that immediately follows m in
// its sequence.
func (m MID) Next() MID { return MID{Proc: m.Proc, Seq: m.Seq + 1} }

// Less orders MIDs first by process, then by sequence number. It is a total
// order used only for canonicalization (sorting dependency lists, map
// iteration); it is NOT the causal order.
func (m MID) Less(o MID) bool {
	if m.Proc != o.Proc {
		return m.Proc < o.Proc
	}
	return m.Seq < o.Seq
}

// Compare is Less as a three-way comparison, for slices.SortFunc.
func (m MID) Compare(o MID) int {
	if c := cmp.Compare(m.Proc, o.Proc); c != 0 {
		return c
	}
	return cmp.Compare(m.Seq, o.Seq)
}

// String renders the MID as "p<proc>#<seq>", e.g. "p3#17".
func (m MID) String() string {
	if m.IsZero() {
		return "p?#0"
	}
	return fmt.Sprintf("p%d#%d", m.Proc, m.Seq)
}

// DepList is the list of MIDs a message causally depends on. Under the
// intermediate interpretation each message depends on at most n other
// messages (at most one per sequence), which bounds the size of the list
// field on the wire.
type DepList []MID

// Canonical sorts the list in (Proc, Seq) order and removes duplicates,
// keeping for each process only the highest sequence number (depending on
// (q,5) subsumes depending on (q,3), because each sequence is totally
// ordered by construction). The receiver is modified in place and returned.
// It allocates nothing: Submit and the waiting path call it per message.
func (d DepList) Canonical() DepList {
	if len(d) <= 1 {
		return d
	}
	slices.SortFunc(d, MID.Compare)
	out := d[:0]
	for _, m := range d {
		if n := len(out); n > 0 && out[n-1].Proc == m.Proc {
			out[n-1] = m // later entry has >= seq after sorting
			continue
		}
		out = append(out, m)
	}
	return out
}

// Contains reports whether the list names message m.
func (d DepList) Contains(m MID) bool {
	for _, x := range d {
		if x == m {
			return true
		}
	}
	return false
}

// Covers reports whether the list subsumes a dependency on m, i.e. whether
// it names a message of m's sequence with sequence number >= m's.
func (d DepList) Covers(m MID) bool {
	for _, x := range d {
		if x.Proc == m.Proc && x.Seq >= m.Seq {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the list.
func (d DepList) Clone() DepList {
	if d == nil {
		return nil
	}
	out := make(DepList, len(d))
	copy(out, d)
	return out
}

// SeqVector is a per-process vector of sequence numbers, indexed by ProcID.
// It is the representation of last_processed, max_processed, min_waiting and
// clean_to in requests and decisions: entry j holds a sequence number within
// p_j's sequence (0 meaning "none").
type SeqVector []Seq

// NewSeqVector returns a zeroed vector for a group of n processes.
func NewSeqVector(n int) SeqVector { return make(SeqVector, n) }

// Clone returns an independent copy of the vector.
func (v SeqVector) Clone() SeqVector {
	out := make(SeqVector, len(v))
	copy(out, v)
	return out
}

// MaxInto raises each entry of v to the corresponding entry of o.
func (v SeqVector) MaxInto(o SeqVector) {
	for i := range v {
		if i < len(o) && o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// MinInto lowers each entry of v to the corresponding entry of o.
func (v SeqVector) MinInto(o SeqVector) {
	for i := range v {
		if i < len(o) && o[i] < v[i] {
			v[i] = o[i]
		}
	}
}

// Dominates reports whether every entry of v is >= the matching entry of o.
func (v SeqVector) Dominates(o SeqVector) bool {
	for i := range v {
		if i < len(o) && v[i] < o[i] {
			return false
		}
	}
	for i := len(v); i < len(o); i++ {
		if o[i] > 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and o hold the same entries.
func (v SeqVector) Equal(o SeqVector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Sum returns the total number of messages the vector accounts for.
func (v SeqVector) Sum() uint64 {
	var s uint64
	for _, x := range v {
		s += uint64(x)
	}
	return s
}
