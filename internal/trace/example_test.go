package trace_test

import (
	"fmt"

	"urcgc/internal/mid"
	"urcgc/internal/trace"
)

// The offline audit replays the log into faultrt.Checker, with the causal
// relation taken from the recorded labels, and reports any invariant of
// Definition 3.2 the log violates.
func ExampleRecorder_Verify() {
	r := trace.NewRecorder(2)
	a := mid.MID{Proc: 0, Seq: 1}
	b := mid.MID{Proc: 1, Seq: 1}
	r.Generate(0, 0, a, nil)
	r.Generate(0, 1, b, mid.DepList{a}) // b depends on a
	// Process 0 breaks causal order: b before a.
	r.Process(10, 0, b)
	r.Process(20, 0, a)
	r.Process(10, 1, a)
	r.Process(20, 1, b)
	for _, v := range r.Verify() {
		fmt.Println(v)
	}
	// Output: uniform-ordering: node 0, p1#1: dependency p0#1 not processed first
}
