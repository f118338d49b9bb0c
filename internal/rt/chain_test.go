package rt

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// TestChainComposesEveryCallback walks every field of core.Callbacks: two
// nil hooks stay nil (a disabled observer adds no wrapper), a lone hook on
// either side is what runs, and two hooks run a's then b's with the same
// arguments. A field chain forgets comes back nil and fails here. Then, on a
// live member with metrics and tracing both on, the host's Observe hooks for
// OnRoundEnd and OnCrashDeclared fire beside the metrics layer's own.
func TestChainComposesEveryCallback(t *testing.T) {
	cbType := reflect.TypeOf(core.Callbacks{})
	for i := 0; i < cbType.NumField(); i++ {
		field := cbType.Field(i)
		var calls []string
		hook := func(name string) reflect.Value {
			return reflect.MakeFunc(field.Type, func([]reflect.Value) []reflect.Value {
				calls = append(calls, name)
				return nil
			})
		}
		with := func(h reflect.Value) core.Callbacks {
			var cb core.Callbacks
			reflect.ValueOf(&cb).Elem().Field(i).Set(h)
			return cb
		}
		// run calls field i of cb with zero arguments and returns who ran.
		run := func(cb core.Callbacks) ([]string, bool) {
			f := reflect.ValueOf(cb).Field(i)
			if f.IsNil() {
				return nil, false
			}
			args := make([]reflect.Value, field.Type.NumIn())
			for j := range args {
				args[j] = reflect.Zero(field.Type.In(j))
			}
			calls = nil
			f.Call(args)
			return calls, true
		}
		if !reflect.ValueOf(chain(core.Callbacks{}, core.Callbacks{})).Field(i).IsNil() {
			t.Errorf("%s: chaining two nil hooks made one", field.Name)
		}
		for _, c := range []struct {
			what string
			cb   core.Callbacks
			want []string
		}{
			{"a alone", chain(with(hook("a")), core.Callbacks{}), []string{"a"}},
			{"b alone", chain(core.Callbacks{}, with(hook("b"))), []string{"b"}},
			{"a and b", chain(with(hook("a")), with(hook("b"))), []string{"a", "b"}},
		} {
			got, ok := run(c.cb)
			if !ok {
				t.Errorf("%s, %s: chain dropped the hook", field.Name, c.what)
			} else if !slices.Equal(got, c.want) {
				t.Errorf("%s, %s: ran %v, want %v", field.Name, c.what, got, c.want)
			}
		}
	}

	t.Run("observe_beside_metrics_and_tracing", func(t *testing.T) {
		const victim = 2
		var rounds, declared atomic.Int64
		cfg := liveConfig(3)
		cfg.Metrics = obs.New()
		cfg.Lifecycle = &lifecycle.Options{SlowThreshold: 10 * time.Second}
		cfg.Observe = func(mid.ProcID, uint32) core.Callbacks {
			return core.Callbacks{
				OnRoundEnd: func(core.RoundObservation) { rounds.Add(1) },
				OnCrashDeclared: func(q mid.ProcID) {
					if q == victim {
						declared.Add(1)
					}
				},
			}
		}
		c := startCluster(t, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Node(victim).Kill()
		waitFor(t, ctx, 20*time.Second, "OnCrashDeclared never reached the Observe hook", func() bool {
			for i := mid.ProcID(0); i < victim; i++ {
				if _, err := c.Node(i).Send(ctx, []byte("drive"), nil); err != nil {
					t.Fatal(err)
				}
			}
			return declared.Load() > 0
		})
		if rounds.Load() == 0 {
			t.Error("OnRoundEnd never reached the Observe hook")
		}
	})
}
