package topics

import (
	"context"
	"net"
	"testing"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// TestForgedProcIDDroppedPerGroup: the datagram that used to kill a member —
// DATA whose dependency names process -2 — arrives on the shared socket for
// group 1. The group's shard must drop and count it (core.Stats.Malformed)
// and keep running, and the other group must not notice.
func TestForgedProcIDDroppedPerGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	m, err := NewMultiNode(Config{
		Config:        core.Config{N: 3, K: 3, R: 8},
		Groups:        2,
		Self:          0,
		Peers:         []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:2"}, // peers never started
		RoundDuration: 5 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()
	conn, err := net.Dial("udp", m.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	forged := &wire.Data{Msg: causal.Message{
		ID:      mid.MID{Proc: 1, Seq: 1},
		Deps:    mid.DepList{{Proc: -2, Seq: 1}},
		Payload: []byte("forged"),
	}}
	frame, err := wire.MarshalAppend(wire.AppendEnvelope(nil, 1, 1), forged)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		hit, err1 := m.GroupStatus(ctx, 1)
		other, err2 := m.GroupStatus(ctx, 0)
		cancel()
		if err1 != nil || err2 != nil {
			t.Fatalf("a shard no longer answers Status: %v, %v", err1, err2)
		}
		if hit.Stats.Malformed == 1 {
			if hit.Stats.ProcessedN != 0 || hit.WaitingLen != 0 || other.Stats.Malformed != 0 {
				t.Fatalf("group 1 kept something of the forged message (%+v) or group 0 saw it (%+v)", hit.Stats, other.Stats)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("group 1 never counted the forged datagram: %+v", hit.Stats)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
