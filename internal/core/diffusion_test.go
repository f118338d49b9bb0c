package core

import (
	"testing"

	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

// diffusionCfg builds a group where the last 'observers' members only
// consume (the diffusion-group structure of Section 3).
func diffusionCfg(n, observers int) Config {
	obs := make([]bool, n)
	for i := n - observers; i < n; i++ {
		obs[i] = true
	}
	return Config{N: n, K: 3, R: 8, SelfExclusion: true, Observers: obs}
}

func TestDiffusionGroupDelivery(t *testing.T) {
	// 3 servers, 3 observers: every message reaches everyone, observers
	// never coordinate, stability still cleans histories (observers'
	// reports count toward the full-group chain).
	cfg := diffusionCfg(6, 3)
	c, err := NewCluster(ClusterConfig{Config: cfg, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	perProc := 10
	res, err := c.Run(RunOptions{
		MaxRounds: 400, MinRounds: 2 * 2 * perProc,
		OnRound: func(round int) {
			if round%2 != 0 || round/2 >= perProc {
				return
			}
			for i := 0; i < 3; i++ { // servers only
				if _, err := c.Submit(mid.ProcID(i), []byte("pub"), nil); err != nil {
					panic(err)
				}
			}
		},
		StopWhenQuiescent: true, DrainSubruns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuiescentAtRound < 0 {
		t.Fatal("never quiescent")
	}
	checkUniformity(t, c)
	for i := 0; i < 6; i++ {
		v := c.Proc(mid.ProcID(i)).Processed()
		if v.Sum() != 30 {
			t.Errorf("member %d processed %d, want 30", i, v.Sum())
		}
		if h := c.Proc(mid.ProcID(i)).HistoryLen(); h > 12 {
			t.Errorf("member %d history %d not cleaned", i, h)
		}
		if c.Proc(mid.ProcID(i)).Stats.Decisions > 0 && cfg.IsObserver(mid.ProcID(i)) {
			t.Errorf("observer %d computed decisions", i)
		}
	}
}

func TestObserverCannotSubmit(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Config: diffusionCfg(4, 2), Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(3, []byte("nope"), nil); err == nil {
		t.Error("observer submission must be rejected")
	}
	if _, err := c.Submit(0, []byte("ok"), nil); err != nil {
		t.Errorf("server submission failed: %v", err)
	}
}

func TestObserverStalenessBlocksCleaning(t *testing.T) {
	// An observer that stops reporting (send-omission) must first stall
	// stability (uniformity protects it), then be declared crashed and
	// excluded, after which cleaning resumes — same machinery as peers.
	cfg := diffusionCfg(4, 1)
	inj := faultrt.During{
		From: sim.StartOfSubrun(4).Duration(), To: sim.Time(1 << 40).Duration(),
		Inner: faultrt.OnlyProc{Proc: 3, Inner: &faultrt.DropEvery{N: 1, Side: faultrt.AtSend}},
	}
	c, err := NewCluster(ClusterConfig{Config: cfg, Seed: 23, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	perProc := 15
	_, err = c.Run(RunOptions{
		MaxRounds: 500, MinRounds: 2 * 2 * perProc,
		OnRound: func(round int) {
			if round%2 != 0 || round/2 >= perProc {
				return
			}
			for i := 0; i < 3; i++ {
				if _, err := c.Submit(mid.ProcID(i), []byte("x"), nil); err != nil {
					panic(err)
				}
			}
		},
		StopWhenQuiescent: true, DrainSubruns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The silent observer got declared crashed and suicided.
	if reason, ok := c.Left[3]; !ok || reason != Suicide {
		t.Fatalf("silent observer should suicide, Left=%v", c.Left)
	}
	// The servers cleaned up and converged without it.
	checkUniformity(t, c)
	for i := 0; i < 3; i++ {
		if h := c.Proc(mid.ProcID(i)).HistoryLen(); h > 8 {
			t.Errorf("server %d history %d not cleaned after exclusion", i, h)
		}
	}
}

func TestObserverCoordinatorSkipping(t *testing.T) {
	cfg := diffusionCfg(4, 2) // peers 0,1; observers 2,3
	p, tp := newProc(t, 0, cfg)
	// Subrun 2 would be member 2's turn in a peer group; with observers it
	// wraps to peer 0.
	if got := p.coordinator(2); got != 0 {
		t.Errorf("coordinator(2) = %d, want 0", got)
	}
	if got := p.coordinator(3); got != 0 {
		t.Errorf("coordinator(3) = %d, want 0 (skip observer 3, wrap)", got)
	}
	if got := p.coordinator(1); got != 1 {
		t.Errorf("coordinator(1) = %d, want 1", got)
	}
	_ = tp
}

func TestDiffusionConfigValidation(t *testing.T) {
	bad := Config{N: 3, K: 2, R: 5, Observers: []bool{true, true}}
	if bad.Validate() == nil {
		t.Error("length mismatch accepted")
	}
	allObs := Config{N: 2, K: 2, R: 5, Observers: []bool{true, true}}
	if allObs.Validate() == nil {
		t.Error("all-observer group accepted")
	}
	ok := Config{N: 2, K: 2, R: 5, Observers: []bool{false, true}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid diffusion config rejected: %v", err)
	}
}

// TestObserverReceivesDecisions confirms observers stay current through the
// decision flow (they are part of the group view and the covered chain).
func TestObserverReceivesDecisions(t *testing.T) {
	cfg := diffusionCfg(3, 1)
	c, err := NewCluster(ClusterConfig{Config: cfg, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	sawFull := false
	c.OnDecision = func(p mid.ProcID, d *wire.Decision) {
		if p == 2 && d.FullGroup {
			sawFull = true
		}
	}
	_, err = c.Run(RunOptions{
		MaxRounds: 60,
		OnRound: func(round int) {
			if round == 0 {
				_, _ = c.Submit(0, []byte("x"), nil)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawFull {
		t.Error("observer never saw a full-group decision")
	}
}
