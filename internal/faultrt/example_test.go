package faultrt_test

import (
	"fmt"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
)

// The Checker judges what each member processed, with the causal relation
// taken from the messages' labels as their origin generated them, and reports
// any invariant of Definition 3.2 the run violates.
func ExampleChecker() {
	ck := faultrt.NewChecker()
	a := &causal.Message{ID: mid.MID{Proc: 0, Seq: 1}}
	b := &causal.Message{ID: mid.MID{Proc: 1, Seq: 1}, Deps: mid.DepList{a.ID}} // b depends on a
	// Member 0 breaks causal order: b before a.
	ck.Record(0, b)
	ck.Record(0, a)
	ck.Record(1, a)
	ck.Record(1, b)
	for _, v := range ck.Check([]mid.ProcID{0, 1}) {
		fmt.Println(v)
	}
	// Output: uniform-ordering: node 0, p1#1: dependency p0#1 not processed first
}
