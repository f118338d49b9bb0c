package main

import (
	"strings"
	"testing"

	"urcgc/internal/benchsuite"
)

func TestCompare(t *testing.T) {
	cases := []benchsuite.Case{{Name: "WireMarshalDecision"}, {Name: "IdleSubrunN3"}, {Name: "Fig5"}}
	fresh := map[string]int64{"WireMarshalDecision": 4, "IdleSubrunN3": 1, "Fig5": 1 << 20}
	measure := func(c benchsuite.Case) int64 {
		if !guarded(c.Name) {
			t.Errorf("measured unguarded case %s", c.Name)
		}
		return fresh[c.Name]
	}
	for _, tc := range []struct {
		name     string
		recorded map[string]baselineEntry
		fail     []string // cases the error must name; none means pass
	}{
		{"equal", map[string]baselineEntry{
			"WireMarshalDecision": {AllocsPerOp: 4},
			"IdleSubrunN3":        {AllocsPerOp: 1},
		}, nil},
		{"fewer", map[string]baselineEntry{
			"WireMarshalDecision": {AllocsPerOp: 9},
			"IdleSubrunN3":        {AllocsPerOp: 2},
		}, nil},
		{"one_more_alloc", map[string]baselineEntry{
			"WireMarshalDecision": {AllocsPerOp: 4},
			"IdleSubrunN3":        {AllocsPerOp: 0},
		}, []string{"IdleSubrunN3"}},
		{"missing", map[string]baselineEntry{
			"WireMarshalDecision": {AllocsPerOp: 4},
		}, []string{"IdleSubrunN3"}},
		{"empty_recording", nil, []string{"WireMarshalDecision", "IdleSubrunN3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verdicts, err := compare(cases, tc.recorded, measure)
			if len(verdicts) != 2 {
				t.Errorf("%d verdicts, want one per guarded case (2): %v", len(verdicts), verdicts)
			}
			if len(tc.fail) == 0 {
				if err != nil {
					t.Errorf("guard failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("guard passed, want it to fail on %v", tc.fail)
			}
			for _, c := range cases {
				want := strings.Contains(strings.Join(tc.fail, " "), c.Name)
				if got := strings.Contains(err.Error(), c.Name); got != want {
					t.Errorf("error %q names %s: %v, want %v", err, c.Name, got, want)
				}
			}
		})
	}
}
