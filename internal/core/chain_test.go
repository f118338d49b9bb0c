package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestChainComposesEveryCallback walks every field of Callbacks: two nil
// hooks stay nil (a disabled observer adds no wrapper), a lone hook on either
// side is what runs, and two hooks run a's then b's with the same arguments.
// A field Chain forgets comes back nil and fails here. rt's test of the same
// name drives the composition on a live member.
func TestChainComposesEveryCallback(t *testing.T) {
	cbType := reflect.TypeOf(Callbacks{})
	for i := 0; i < cbType.NumField(); i++ {
		field := cbType.Field(i)
		var calls []string
		hook := func(name string) reflect.Value {
			return reflect.MakeFunc(field.Type, func([]reflect.Value) []reflect.Value {
				calls = append(calls, name)
				return nil
			})
		}
		with := func(h reflect.Value) Callbacks {
			var cb Callbacks
			reflect.ValueOf(&cb).Elem().Field(i).Set(h)
			return cb
		}
		// run calls field i of cb with zero arguments and returns who ran.
		run := func(cb Callbacks) ([]string, bool) {
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
		if !reflect.ValueOf(Chain(Callbacks{}, Callbacks{})).Field(i).IsNil() {
			t.Errorf("%s: chaining two nil hooks made one", field.Name)
		}
		for _, c := range []struct {
			what string
			cb   Callbacks
			want []string
		}{
			{"a alone", Chain(with(hook("a")), Callbacks{}), []string{"a"}},
			{"b alone", Chain(Callbacks{}, with(hook("b"))), []string{"b"}},
			{"a and b", Chain(with(hook("a")), with(hook("b"))), []string{"a", "b"}},
		} {
			got, ok := run(c.cb)
			if !ok {
				t.Errorf("%s, %s: Chain dropped the hook", field.Name, c.what)
			} else if !slices.Equal(got, c.want) {
				t.Errorf("%s, %s: ran %v, want %v", field.Name, c.what, got, c.want)
			}
		}
	}
}
