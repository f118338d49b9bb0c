package groups

import (
	"fmt"
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
)

// counterService is a deterministic replicated state machine: each request
// adds its input's first byte to a per-server accumulator and answers with
// the running total. Identical causal order => identical answers.
func newCounterService(t *testing.T, n int, seed int64, inj faultrt.Injector) (*Service, *core.Cluster) {
	t.Helper()
	c, err := core.NewCluster(core.ClusterConfig{
		Config:   core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		Seed:     seed,
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]int, n)
	svc, err := NewService(c, func(server mid.ProcID, req Request) []byte {
		if len(req.Input) > 0 {
			totals[server] += int(req.Input[0])
		}
		return []byte(fmt.Sprintf("total=%d", totals[server]))
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, c
}

func TestReplicatedCallsAgree(t *testing.T) {
	svc, c := newCounterService(t, 5, 1, nil)
	calls := 6
	_, err := c.Run(core.RunOptions{
		MaxRounds: 300, MinRounds: 2 * 2 * calls,
		OnRound: svc.OnRound(func(round int) {
			if round%2 != 0 || round/2 >= calls {
				return
			}
			k := uint32(round / 2)
			agent := mid.ProcID(int(k) % c.N())
			if _, err := svc.Call(agent, Request{Client: 9, CallID: k, Input: []byte{byte(k + 1)}}, MajorityVote(c.N())); err != nil {
				panic(err)
			}
		}),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every call completed by majority with a consistent output.
	for k := uint32(0); k < uint32(calls); k++ {
		out, done := svc.Done(9, k)
		if !done {
			t.Fatalf("call %d never completed: replies %v", k, svc.Replies(9, k))
		}
		if len(out) == 0 {
			t.Fatalf("call %d empty output", k)
		}
		// All gathered replies for one call agree (state machine property).
		for _, r := range svc.Replies(9, k) {
			if string(r.Output) != string(out) {
				t.Fatalf("call %d: server %d answered %q, vote was %q", k, r.Server, r.Output, out)
			}
		}
	}
}

func TestCallsSurviveServerCrash(t *testing.T) {
	svc, c := newCounterService(t, 5, 2, faultrt.CrashAt{Proc: 4, At: sim.StartOfSubrun(5).Duration()})
	calls := 8
	_, err := c.Run(core.RunOptions{
		MaxRounds: 400, MinRounds: 2 * 2 * calls,
		OnRound: svc.OnRound(func(round int) {
			if round%2 != 0 || round/2 >= calls {
				return
			}
			k := uint32(round / 2)
			agent := mid.ProcID(int(k) % 4) // avoid the doomed server as agent
			if _, err := svc.Call(agent, Request{Client: 1, CallID: k, Input: []byte{1}}, MajorityVote(c.N())); err != nil {
				panic(err)
			}
		}),
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < uint32(calls); k++ {
		if _, done := svc.Done(1, k); !done {
			t.Fatalf("call %d did not survive the crash; replies %v", k, svc.Replies(1, k))
		}
	}
}

func TestVotingRules(t *testing.T) {
	mk := func(outs ...string) []Reply {
		rs := make([]Reply, len(outs))
		for i, o := range outs {
			rs[i] = Reply{Server: mid.ProcID(i), Output: []byte(o)}
		}
		return rs
	}
	maj := MajorityVote(5)
	if maj(mk("a", "a")) {
		t.Error("2 of 5 is not a majority")
	}
	if !maj(mk("a", "a", "a")) {
		t.Error("3 of 5 agreeing is a majority")
	}
	if maj(mk("a", "b", "a")) {
		t.Error("2 agreeing of 3 replies is not > n/2")
	}
	first := FirstReply()
	if first(nil) {
		t.Error("no replies yet")
	}
	if !first(mk("x")) {
		t.Error("one reply completes FirstReply")
	}
}

func TestDuplicateCallRejected(t *testing.T) {
	svc, _ := newCounterService(t, 3, 3, nil)
	if _, err := svc.Call(0, Request{Client: 1, CallID: 7, Input: []byte{1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Call(1, Request{Client: 1, CallID: 7, Input: []byte{1}}, nil); err == nil {
		t.Error("duplicate call must be rejected")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{N: 2, K: 2, R: 5, SelfExclusion: true},
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(c, nil); err == nil {
		t.Error("nil handler must be rejected")
	}
}

func TestRequestCodec(t *testing.T) {
	r := Request{Client: 0xdeadbeef, CallID: 42, Input: []byte("payload")}
	got, err := decodeReq(encodeReq(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Client != r.Client || got.CallID != r.CallID || string(got.Input) != "payload" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decodeReq([]byte{1, 2}); err == nil {
		t.Error("short payload must fail")
	}
	empty := Request{Client: 1, CallID: 2}
	got, err = decodeReq(encodeReq(empty))
	if err != nil || len(got.Input) != 0 {
		t.Errorf("empty input round trip: %+v, %v", got, err)
	}
}
