package main

import (
	"reflect"
	"strings"
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

func TestBuildInjector(t *testing.T) {
	for _, tc := range []struct {
		name            string
		crash           string
		omit, omitUntil int
		partition       string
		want            faultrt.Injector
		errNaming       string
	}{
		{name: "reliable", want: nil},
		{name: "crashes", crash: "3@6, 4@7", want: faultrt.Multi{
			faultrt.CrashAt{Proc: 3, At: sim.StartOfSubrun(6).Duration()},
			faultrt.CrashAt{Proc: 4, At: sim.StartOfSubrun(7).Duration()},
		}},
		{name: "omission", omit: 50, want: faultrt.Multi{&faultrt.DropEvery{N: 50, Side: faultrt.AtSend}}},
		{name: "windowed omission", omit: 50, omitUntil: 5, want: faultrt.Multi{faultrt.During{
			To: (5 * sim.TicksPerRTD).Duration(), Inner: &faultrt.DropEvery{N: 50, Side: faultrt.AtSend},
		}}},
		{name: "partition", partition: "0,1,2@6-10", want: faultrt.Multi{faultrt.Partition{
			From: sim.StartOfSubrun(6).Duration(), To: sim.StartOfSubrun(10).Duration(),
			SideA: map[mid.ProcID]bool{0: true, 1: true, 2: true},
		}}},
		{name: "crash and partition", crash: "9@0", partition: "4@1-2", want: faultrt.Multi{
			faultrt.CrashAt{Proc: 9, At: 0},
			faultrt.Partition{From: sim.StartOfSubrun(1).Duration(), To: sim.StartOfSubrun(2).Duration(), SideA: map[mid.ProcID]bool{4: true}},
		}},
		{name: "crash member past the group", crash: "12@3", errNaming: "-crash"},
		{name: "negative crash member", crash: "-1@3", errNaming: "-crash"},
		{name: "negative crash subrun", crash: "3@-1", errNaming: "-crash"},
		{name: "crash without subrun", crash: "3", errNaming: "-crash"},
		{name: "partition member past the group", partition: "0,10@1-2", errNaming: "-partition"},
		{name: "inverted partition window", partition: "0,1@10-6", errNaming: "-partition"},
		{name: "empty partition window", partition: "0,1@6-6", errNaming: "-partition"},
		{name: "negative partition window", partition: "0,1@-1-6", errNaming: "-partition"},
		{name: "partition without window", partition: "0,1", errNaming: "-partition"},
	} {
		got, err := buildInjector(10, tc.crash, tc.omit, tc.omitUntil, tc.partition)
		if tc.errNaming != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.errNaming+":") {
				t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.errNaming)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: built %#v, want %#v", tc.name, got, tc.want)
		}
	}
}
