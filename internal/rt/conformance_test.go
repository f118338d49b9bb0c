package rt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// The conformance table: what the one runtime promises, whatever the link and
// however many groups share it. Every row runs on every cell of
// link ∈ {mesh, udp} × G ∈ {1, 4}, three members each, with the free lists
// of every shard poisoned — so a record read after its release fails whichever
// row is running, and under `make race` is the data race it is.

// cell is one started (link, G) configuration of the engine.
type cell struct {
	link    string
	groups  int
	members []*Member
	reg     *obs.Registry
	rings   []*capture.Ring
}

// startCell builds and starts three members hosting `groups` groups over the
// named link, with metrics and frame capture on and every protocol entity
// audited by its group's faultrt.Checker; tune adjusts the config. Once the
// members have stopped, the row fails on any ordering, fail-stop or
// discard-after-processing breach the checkers saw (atomicity needs a
// quiesced group, which is chaos's to judge).
func startCell(t *testing.T, link string, groups int, tune func(*Config)) *cell {
	t.Helper()
	const n = 3
	c := &cell{link: link, groups: groups, reg: obs.New(), rings: make([]*capture.Ring, n)}
	for i := range c.rings {
		c.rings[i] = capture.New(capture.Options{Node: mid.ProcID(i), N: n, MaxFrames: 1 << 14})
	}
	checkers := make([]*faultrt.Checker, groups)
	for g := range checkers {
		checkers[g] = faultrt.NewChecker()
	}
	t.Cleanup(func() { // registered first, so it runs after every Stop
		for g, ck := range checkers {
			for _, v := range ck.Check(nil) {
				t.Errorf("group %d: %v", g, v)
			}
		}
	})
	cfg := Config{
		// K and R are generous: socket members' clocks run free, and on a
		// loaded host a member descheduled for a few rounds must not be taken
		// for crashed — no row is about that.
		Config: core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
		Groups: groups, Shards: min(groups, 2),
		RoundDuration: 3 * time.Millisecond,
		Metrics:       c.reg,
		Logf:          func(string, ...any) {},
		Observe: func(node mid.ProcID, group uint32) core.Callbacks {
			return core.Audit(checkers[group], node)
		},
	}
	if link == "mesh" {
		cfg.RoundDuration = 500 * time.Microsecond
	}
	if tune != nil {
		tune(&cfg)
	}
	cfg.Captures = c.rings
	if link == "mesh" {
		mesh, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.members = mesh.members
		c.poison()
		mesh.Start()
		t.Cleanup(mesh.Stop)
		return c
	}
	cfg.Peers = freePorts(t, n)
	for i := 0; i < n; i++ {
		cfg.Self = mid.ProcID(i)
		m, err := NewMember(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.members = append(c.members, m)
		t.Cleanup(m.Stop)
	}
	c.poison()
	for _, m := range c.members {
		m.Start()
	}
	return c
}

func (c *cell) poison() {
	for _, m := range c.members {
		for _, sh := range m.shards {
			sh.free.Poison = true
		}
	}
}

// inject hands member 0 a raw datagram the way its link would: through the
// socket, or as a mesh peer's hand-off to the loop of the group the envelope
// names — group 0's when it names none member 0 hosts, which the validator
// refuses wherever it runs.
func (c *cell) inject(t *testing.T, frame []byte) {
	t.Helper()
	m := c.members[0]
	if c.link == "mesh" {
		group, _, _, err := wire.ParseEnvelope(frame)
		if err != nil || int64(group) >= int64(len(m.sessions)) {
			group = 0
		}
		sh := newSharedBuf(append(wire.GetBuf(len(frame)), frame...))
		m.deliver(group, sh)
		sh.release()
		return
	}
	conn, err := net.Dial("udp", m.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// awaitAll polls until cond holds for every listed member and group.
func (c *cell) awaitAll(t *testing.T, members []*Member, what string, cond func(st Status) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, m := range members {
		for g := uint32(0); g < uint32(c.groups); {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			st, err := m.GroupStatus(ctx, g)
			cancel()
			switch {
			case err == nil && cond(st):
				g++
			case time.Now().After(deadline):
				t.Fatalf("%s: member %d group %d stuck at %+v (err %v)", what, m.ID(), g, st, err)
			default:
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
}

// sendAll has every listed member confirm per causally labelled messages on
// every group, all groups and members concurrently.
func (c *cell) sendAll(t *testing.T, members []*Member, per int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, m := range members {
		for g := uint32(0); g < uint32(c.groups); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < per; k++ {
					if _, err := m.SendCausal(ctx, g, binary.BigEndian.AppendUint32(nil, uint32(k))); err != nil {
						t.Errorf("member %d group %d send %d: %v", m.ID(), g, k, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// verdicts counts member i's capture records per (direction, verdict).
func (c *cell) verdicts(i int) map[string]int {
	out := map[string]int{}
	for _, r := range c.rings[i].Snapshot().Records {
		out[r.Dir.String()+" "+r.Verdict.String()]++
	}
	return out
}

func TestConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	rows := []struct {
		name string
		run  func(t *testing.T, link string, groups int)
	}{
		{"order", conformOrder},
		{"leave", conformLeave},
		{"stop_with_open_window", conformStopOpenWindow},
		{"refused_frames", conformRefusedFrames},
		{"fault_verdicts", conformFaultVerdicts},
		{"poisoned_records", conformPoisonedRecords},
		{"malformed_bundles", conformMalformedBundles},
		{"forged_sender", conformForgedSender},
		{"shard_independence", conformShardIndependence},
		{"stalled_reader", conformStalledReader},
	}
	for _, link := range []string{"mesh", "udp"} {
		for _, groups := range []int{1, 4} {
			for _, row := range rows {
				t.Run(fmt.Sprintf("%s/G%d/%s", link, groups, row.name), func(t *testing.T) {
					row.run(t, link, groups)
				})
			}
		}
	}
}

// conformOrder: a Send's confirm means processed locally under the MID it
// reports, a sender's sequence is indicated contiguously everywhere, and a
// causal successor is indicated after what it depends on — per group, with
// the other groups' traffic interleaved on the same link.
func conformOrder(t *testing.T, link string, groups int) {
	c := startCell(t, link, groups, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const chain = 4
	for g := uint32(0); g < uint32(groups); g++ {
		for k := 1; k <= chain; k++ {
			id, err := c.members[0].Send(ctx, g, []byte(fmt.Sprintf("a%d", k)), nil)
			if err != nil || id != (mid.MID{Proc: 0, Seq: mid.Seq(k)}) {
				t.Fatalf("group %d send %d: %v, %v", g, k, id, err)
			}
			var own mid.Seq
			if err := c.members[0].Snapshot(ctx, g, func(p *core.Process) { own = p.Processed()[0] }); err != nil || own < id.Seq {
				t.Fatalf("group %d: confirmed %v with the sender at %d (err %v)", g, id, own, err)
			}
		}
	}
	c.awaitAll(t, c.members[1:2], "member 1 processing the chain", func(st Status) bool { return st.Processed[0] == chain })
	// Both links count what they carry. A mesh hand-off counts as sent, like
	// a socket write, before its receiver can count it, so there sent covers
	// received (read first: a frame in flight between the reads only widens
	// the gap); a socket's receiver may count a datagram before its sender
	// has counted the write.
	recv := c.reg.Counter("topics_recv_datagrams_total").Value()
	sent := c.reg.Counter("topics_send_datagrams_total").Value()
	floor := int64(1)
	if link == "mesh" {
		floor = recv
	}
	if recv == 0 || sent < floor {
		t.Errorf("%s link: %d datagrams sent, %d received", link, sent, recv)
	}
	for g := uint32(0); g < uint32(groups); g++ {
		if _, err := c.members[1].SendCausal(ctx, g, []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	for g := uint32(0); g < uint32(groups); g++ {
		ind, _ := c.members[2].Indications(g)
		next, sawB := mid.Seq(1), false
		for !sawB {
			select {
			case in := <-ind:
				switch {
				case in.Msg.ID.Proc == 1:
					if sawB = true; next <= chain {
						t.Fatalf("group %d: b indicated before a%d, which it depends on", g, next)
					}
				case in.Msg.ID.Seq != next || string(in.Msg.Payload) != fmt.Sprintf("a%d", next):
					t.Fatalf("group %d: indicated %v %q, want seq %d", g, in.Msg.ID, in.Msg.Payload, next)
				default:
					next++
				}
			case <-ctx.Done():
				t.Fatalf("group %d: member 2 starved at seq %d", g, next)
			}
		}
	}
}

// conformLeave: a member that leaves a group fails every Send waiting on it
// there, once each, and reports why. Everything member 2 sends is omitted:
// its first message per group is processed at home only and, never stable,
// keeps the flow-control valve shut on the rest, which wait registered until
// the others' decision declares the silent member crashed and it removes
// itself. The others then move on, and the audit holds the member that left
// to fail-stop: it processes none of it.
func conformLeave(t *testing.T, link string, groups int) {
	c := startCell(t, link, groups, func(cfg *Config) {
		cfg.K, cfg.R, cfg.HistoryThreshold = 3, 8, 1
		cfg.Fault = faultrt.NewHook(faultrt.Cut(func(_ uint32, src, _ mid.ProcID) bool { return src == 2 }), nil)
	})
	const waiters = 6
	victim := c.members[2]
	errs := make(chan error, groups*waiters)
	for g := uint32(0); g < uint32(groups); g++ {
		if _, err := victim.Send(context.Background(), g, []byte("closes the valve"), nil); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		for w := 0; w < waiters; w++ {
			go func() {
				_, err := victim.Send(context.Background(), g, []byte("held"), nil)
				errs <- err
			}()
		}
	}
	for i := 0; i < groups*waiters; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "left the group") {
				t.Errorf("waiter woke with %v, want the member-left error", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d waiters released by the leave", i, groups*waiters)
		}
	}
	for g, s := range victim.sessions {
		if _, left := victim.Left(uint32(g)); !left || s.conf.Waiting() != 0 {
			t.Errorf("group %d: left=%v with %d waiters still registered", g, left, s.conf.Waiting())
		}
	}
	c.sendAll(t, c.members[:2], 2)
}

// conformStopOpenWindow: Sends parked inside an open coalescer window when
// the member stops are failed, in every group, never left hanging — and so
// is the message queued ahead of each window that holds it open (strand).
func conformStopOpenWindow(t *testing.T, link string, groups int) {
	c := startCell(t, link, groups, backlogged)
	m := c.members[0]
	done := make([]<-chan error, groups)
	for g := range done {
		done[g] = strand(t, m, uint32(g))
	}
	m.Stop()
	for _, ch := range done {
		for range 2 {
			select {
			case err := <-ch:
				if err == nil {
					t.Error("Send stranded in a stopped coalescer returned nil error")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Send leaked: still blocked after Stop")
			}
		}
	}
}

// conformRefusedFrames: the validator refuses, counts and captures a runt, a
// non-member source, the receiver's own source id, an unhosted group and an
// undecodable body. The member stays up.
func conformRefusedFrames(t *testing.T, link string, groups int) {
	c := startCell(t, link, groups, nil)
	last := uint32(groups - 1)
	env := func(group uint32, src mid.ProcID, body ...byte) []byte {
		return append(wire.AppendEnvelope(nil, group, src), body...)
	}
	junk := []byte{0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee}
	for _, frame := range [][]byte{
		{0xff},                          // runt
		env(last, 99, junk...),          // member 99 of a group of 3
		env(last, 0, junk...),           // the receiver's own id
		env(uint32(groups), 1, junk...), // a group nobody hosts
		env(last, 1, junk...),           // undecodable
	} {
		c.inject(t, frame)
	}
	want := map[string]int64{"topics_recv_datagrams_total": 5, "topics_drop_envelope_total": 1,
		"topics_drop_badsrc_total": 2, "topics_drop_group_total": 1, "topics_drop_decode_total": 1}
	c.awaitAll(t, c.members[:1], "counting the refused frames", func(Status) bool {
		for name, n := range want {
			if c.reg.Counter(name).Value() < n {
				return false
			}
		}
		return true
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := c.verdicts(0)
	for v, n := range map[string]int{"in drop-short": 1, "in drop-badsrc": 2, "in drop-group": 1, "in drop-decode": 1} {
		if got[v] != n {
			t.Errorf("captured %d %q records, want %d (all: %v)", got[v], v, n, got)
		}
	}
	if id, err := c.members[0].Send(ctx, last, []byte("mine"), nil); err != nil || id != (mid.MID{Proc: 0, Seq: 1}) {
		t.Fatalf("own first message after the refused frames: %v, %v", id, err)
	}
}

// conformFaultVerdicts: send omissions, duplicates, receive delays and a
// scheduled crash at the link boundary — the survivors converge in every
// group, each kind was injected, and each verdict is on the capture rings.
func conformFaultVerdicts(t *testing.T, link string, groups int) {
	const crashAt = 150 * time.Millisecond
	var hook *faultrt.Hook
	c := startCell(t, link, groups, func(cfg *Config) {
		hook = faultrt.NewHook(faultrt.Multi{
			faultrt.CrashAt{Proc: 2, At: crashAt},
			&faultrt.DropEvery{N: 23, Side: faultrt.AtSend},
			&faultrt.DupEvery{N: 17, Copies: 1, Side: faultrt.AtSend},
			faultrt.NewDelayEvery(19, time.Millisecond, time.Millisecond, faultrt.AtRecv, 5),
		}, cfg.Metrics)
		cfg.Fault = hook
	})
	const perMember = 5
	c.sendAll(t, c.members[:2], perMember)
	for hook.Elapsed() < crashAt+50*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
	}
	c.awaitAll(t, c.members[:2], "survivors converging", func(st Status) bool {
		return st.Processed[0] == perMember && st.Processed[1] == perMember
	})
	if !c.members[2].Killed() {
		t.Error("the scheduled crash never fail-stopped member 2")
	}
	inj := hook.Injected()
	for _, kind := range []string{"crash", "drop", "delay", "duplicate"} {
		if inj[kind] == 0 || c.reg.Counter(obs.Labeled("faultrt_injected_total", "kind", kind)).Value() == 0 {
			t.Errorf("no %s fault injected or exported: %v", kind, inj)
		}
	}
	got := map[string]int{}
	for i := range c.members {
		for v, n := range c.verdicts(i) {
			got[v] += n
		}
	}
	for _, v := range []string{"out sent", "out fault-drop", "out fault-dup", "in delivered", "in fault-delay", "in fault-drop"} {
		if got[v] == 0 {
			t.Errorf("no %q capture record under injected faults (all: %v)", v, got)
		}
	}
}

// conformPoisonedRecords holds the runtime to the borrow rule (DESIGN.md §7
// rule 5) under load on every group at once: whoever decodes for a shard
// takes control records from its free list and the loop hands them back after
// recv, poisoned. A record still read after its release turns into a
// malformed PDU, a lost member or a group that never converges.
func conformPoisonedRecords(t *testing.T, link string, groups int) {
	c := startCell(t, link, groups, nil)
	const perGroup = 24
	c.sendAll(t, c.members, perGroup)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.awaitAll(t, c.members, "converging with poisoned free lists", func(st Status) bool {
		return st.Processed.Equal(mid.SeqVector{perGroup, perGroup, perGroup})
	})
	for _, m := range c.members {
		for g := uint32(0); g < uint32(groups); g++ {
			st, err := m.GroupStatus(ctx, g)
			if _, left := m.Left(g); left || err != nil || st.Stats.Malformed != 0 {
				t.Errorf("member %d group %d: left=%v, %d malformed PDUs (err %v)", m.ID(), g, left, st.Stats.Malformed, err)
			}
		}
	}
}

// conformMalformedBundles: a bundle whose framing breaks is an omission,
// never a panic. Each counts once as a bad envelope, with a capture record of
// the datagram; the frames before the break are delivered, nothing after it
// is, and the group goes on converging. The valid frames are copies of a
// message every member has processed: delivered, they are duplicates.
func conformMalformedBundles(t *testing.T, link string, groups int) {
	c := startCell(t, link, groups, nil)
	const perGroup = 4
	c.sendAll(t, c.members, perGroup)
	c.awaitAll(t, c.members, "converging before the bundles", func(st Status) bool {
		return st.Processed.Equal(mid.SeqVector{perGroup, perGroup, perGroup})
	})
	last := uint32(groups - 1)
	frame := func(payload string) []byte {
		f, err := wire.MarshalAppend(wire.AppendEnvelope(nil, last, 1), &wire.Data{Msg: causal.Message{
			ID: mid.MID{Proc: 1, Seq: 1}, Payload: []byte(payload),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	before, after := frame("before the break"), frame("after the break")
	bundle := func(parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{wire.AppendBundleHeader(nil)}, parts...), nil)
	}
	bundled := func(f []byte) []byte { return append(wire.AppendBundled(nil, f), f...) }
	word := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	for _, pkt := range [][]byte{
		bundle(bundled(before), word(0), bundled(after)),           // a zero length
		bundle(bundled(before), word(uint32(len(after)+1)), after), // a length past the end
		bundle(), // a lone marker
		bundle(bundled(before), bundled(bundle(bundled(after)))), // a bundle inside a bundle
		bundle(bundled(before), []byte{0xee, 0xee, 0xee}),        // a valid frame followed by garbage
	} {
		c.inject(t, pkt)
	}
	const malformed, delivered = 5, 4
	c.awaitAll(t, c.members[:1], "counting the malformed bundles", func(Status) bool {
		return c.reg.Counter("topics_drop_envelope_total").Value() >= malformed
	})
	body := func(f []byte) []byte { return f[wire.EnvelopeSize(last):] }
	var short, got, leaked int
	for _, r := range c.rings[0].Snapshot().Records {
		switch {
		case r.Dir != capture.DirIngress:
		case r.Verdict == capture.DropShort:
			short++
		case r.Verdict == capture.Delivered && bytes.Equal(r.Frame, body(before)):
			got++
		case bytes.Equal(r.Frame, body(after)):
			leaked++
		}
	}
	if n := c.reg.Counter("topics_drop_envelope_total").Value(); n != malformed || short != malformed {
		t.Errorf("%d bad envelopes counted, %d captured, want %d each: one per malformed bundle", n, short, malformed)
	}
	if got != delivered || leaked != 0 {
		t.Errorf("%d frames before a break delivered (want %d), %d after one (want 0)", got, delivered, leaked)
	}
	c.sendAll(t, c.members, perGroup)
	c.awaitAll(t, c.members, "converging after the bundles", func(st Status) bool {
		return st.Processed.Equal(mid.SeqVector{2 * perGroup, 2 * perGroup, 2 * perGroup})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, m := range c.members {
		for g := uint32(0); g < uint32(groups); g++ {
			st, err := m.GroupStatus(ctx, g)
			if _, left := m.Left(g); left || err != nil || st.Stats.Malformed != 0 {
				t.Errorf("member %d group %d: left=%v, %d malformed PDUs (err %v)", m.ID(), g, left, st.Stats.Malformed, err)
			}
		}
	}
}

// conformForgedSender: frames that pass the validator and lie about who sent
// what, from anyone who can reach the link. DATA from "member 1" depending on
// process -2 (the causal check used to index the processed vector with it),
// then the receiver's own next message — relayed by "member 1", which the
// protocol must drop (a member that processed its own sequence off the wire
// would collide with the number its next broadcast takes, which used to
// panic), and under its own source id, which stops at the validator. The hit
// group drops and counts each (Stats.Malformed) and keeps nothing, the other
// groups never notice, and the member's own first message is still number 1.
func conformForgedSender(t *testing.T, link string, groups int) {
	c := startCell(t, link, groups, nil)
	last := uint32(groups - 1)
	forged := &wire.Data{Msg: causal.Message{
		ID:      mid.MID{Proc: 1, Seq: 1},
		Deps:    mid.DepList{{Proc: -2, Seq: 1}},
		Payload: []byte("forged"),
	}}
	own := &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 0, Seq: 1}, Payload: []byte("not mine")}}
	for malformed, f := range []struct {
		src mid.ProcID
		pdu wire.PDU
	}{{1, forged}, {1, own}, {0, own}} {
		frame, err := wire.MarshalAppend(wire.AppendEnvelope(nil, last, f.src), f.pdu)
		if err != nil {
			t.Fatal(err)
		}
		c.inject(t, frame)
		want := min(malformed+1, 2) // the one "from ourselves" never reaches the protocol
		c.awaitAll(t, c.members[:1], "dropping the forged DATA", func(st Status) bool {
			// awaitAll walks the groups in order: only the last was hit.
			return st.Stats.Malformed == 0 || st.Stats.Malformed == want
		})
	}
	c.awaitAll(t, c.members[:1], "refusing the member's own source id", func(Status) bool {
		return c.reg.Counter("topics_drop_badsrc_total").Value() == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for g := uint32(0); g <= last; g++ {
		st, err := c.members[0].GroupStatus(ctx, g)
		want := 0
		if g == last {
			want = 2
		}
		if err != nil || st.Stats.Malformed != want || st.Stats.ProcessedN != 0 || st.WaitingLen != 0 {
			t.Errorf("group %d: %d malformed (want %d), %d processed, %d waiting (err %v): something of a forgery was kept or leaked across groups",
				g, st.Stats.Malformed, want, st.Stats.ProcessedN, st.WaitingLen, err)
		}
	}
	if id, err := c.members[0].Send(ctx, last, []byte("mine"), nil); err != nil || id != (mid.MID{Proc: 0, Seq: 1}) {
		t.Fatalf("own first message after the impersonation: %v, %v", id, err)
	}
}

// conformShardIndependence: a shard loop held busy stops the groups hashed
// onto it and no other. Member 0's loop for group 0 is held inside a command;
// over two shard loops, group 1 still answers a Snapshot and confirms a Send.
// Over one loop for every group, the same probe waits out its context — so
// the row detects groups serialised behind one loop by what completes, not by
// a rate.
func conformShardIndependence(t *testing.T, link string, groups int) {
	if groups == 1 {
		t.Skip("one group: no other shard loop to stay free")
	}
	for _, shards := range []int{2, 1} {
		t.Run(fmt.Sprintf("S%d", shards), func(t *testing.T) {
			c := startCell(t, link, groups, func(cfg *Config) { cfg.Shards = shards })
			m := c.members[0]
			held, release := make(chan struct{}), make(chan struct{})
			defer close(release)
			go m.Snapshot(context.Background(), 0, func(*core.Process) { close(held); <-release })
			select {
			case <-held:
			case <-time.After(30 * time.Second):
				t.Fatal("group 0's shard loop never ran the holding command")
			}
			// A free loop answers well inside the generous budget; a held one
			// can not answer at all, so the short budget only bounds the wait.
			budget := 30 * time.Second
			if shards == 1 {
				budget = 50 * time.Millisecond
			}
			probe := func(what string, op func(context.Context) error) {
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				defer cancel()
				err := op(ctx)
				switch {
				case shards > 1 && err != nil:
					t.Errorf("%s on group 1 with group 0's loop held: %v", what, err)
				case shards == 1 && !errors.Is(err, context.DeadlineExceeded):
					t.Errorf("%s on group 1 returned %v with the only loop held, want it to wait", what, err)
				}
			}
			probe("Snapshot", func(ctx context.Context) error {
				return m.Snapshot(ctx, 1, func(*core.Process) {})
			})
			probe("Send", func(ctx context.Context) error {
				_, err := m.Send(ctx, 1, []byte("past the held loop"), nil)
				return err
			})
		})
	}
}

// conformStalledReader holds the indication stream to its contract while
// nobody reads it. With IndicationDepth well above the stream's channel,
// every member holds exactly IndicationDepth indications per group — the
// channel full and the rest spilled — and counts every later one dropped;
// once the reader resumes, what was held arrives in each sender's sequence
// order across the channel→spill boundary, and the drainers leave. Stopped
// with a spill pending, no drainer outlives Stop. Memory follows what is
// queued, not the depth: a member built with a depth of 2^20 and never read
// holds no more heap than the fixed bound below.
func conformStalledReader(t *testing.T, link string, groups int) {
	const (
		depth = 2 * streamBuffer
		per   = streamBuffer + 64 // from each of members 0 and 1: 2·per > depth
	)
	// The row idles between bursts while it reads; a generous K keeps a
	// socket member descheduled meanwhile from being taken for crashed.
	quiet := func(cfg *Config) { cfg.K, cfg.R = 100, 202 }
	c := startCell(t, link, groups, func(cfg *Config) { quiet(cfg); cfg.IndicationDepth = depth })
	c.sendAll(t, c.members[:2], per)
	c.awaitAll(t, c.members, "processing every message", func(st Status) bool {
		return st.Processed[0] == per && st.Processed[1] == per
	})
	if n := drainers(); n < len(c.members)*groups {
		t.Errorf("%d drainers running with every stream spilled, want %d", n, len(c.members)*groups)
	}
	for _, m := range c.members {
		for g, s := range m.sessions {
			s.ind.mu.Lock()
			held := len(s.ind.ch) + len(s.ind.spill) - s.ind.head
			s.ind.mu.Unlock()
			dropped := c.reg.Counter(obs.Labeled("rt_indications_dropped_total",
				"node", strconv.Itoa(int(m.ID())), "group", strconv.Itoa(g))).Value()
			if held != depth || dropped != 2*per-depth {
				t.Errorf("member %d group %d: %d held, %d dropped; want %d and %d", m.ID(), g, held, dropped, depth, 2*per-depth)
			}
		}
	}
	for _, m := range c.members {
		for g := uint32(0); g < uint32(groups); g++ {
			ind, _ := m.Indications(g)
			next := mid.SeqVector{1, 1, 1}
			for k := 0; k < depth; k++ {
				select {
				case in := <-ind:
					id := in.Msg.ID
					if id.Seq != next[id.Proc] || string(in.Msg.Payload) != string(binary.BigEndian.AppendUint32(nil, uint32(id.Seq-1))) {
						t.Fatalf("member %d group %d: indication %d is %v, want seq %d of member %d", m.ID(), g, k, id, next[id.Proc], id.Proc)
					}
					next[id.Proc]++
				case <-time.After(10 * time.Second):
					t.Fatalf("member %d group %d: %d of %d held indications arrived", m.ID(), g, k, depth)
				}
			}
			select {
			case in := <-ind:
				t.Fatalf("member %d group %d: indication %v beyond the %d held", m.ID(), g, in.Msg.ID, depth)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); drainers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d drainers still running with every spill read", drainers())
		}
	}

	// Spill again, and stop with the spills pending.
	c.sendAll(t, c.members[:1], streamBuffer+1)
	c.awaitAll(t, c.members, "processing the second burst", func(st Status) bool {
		return st.Processed[0] == per+streamBuffer+1
	})
	if n := drainers(); n == 0 {
		t.Error("no drainer running with the streams spilled again")
	}
	for _, m := range c.members {
		m.Stop()
	}
	// Stop has waited for every drainer's last act; the goroutine itself may
	// take a moment more to leave the scheduler's list.
	for deadline := time.Now().Add(5 * time.Second); drainers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d drainers outlived Stop", drainers())
		}
	}

	// At a depth of 2^20 a channel of that many slots is 56 MiB per stream;
	// a stream costs its channel and its backlog. 16 MiB covers the cell's
	// own set-up (capture rings, registries, free lists, 3–5 MiB) at G = 4
	// with room to spare, and is under a third of one such channel.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	big := startCell(t, link, groups, func(cfg *Config) { quiet(cfg); cfg.IndicationDepth = 1 << 20 })
	big.sendAll(t, big.members[:1], streamBuffer+1)
	big.awaitAll(t, big.members, "processing past the channel", func(st Status) bool {
		return st.Processed[0] == streamBuffer+1
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grown > 16<<20 {
		t.Errorf("never-read members at depth 2^20 hold %d KiB more heap, bound 16 MiB", grown>>10)
	}
	t.Logf("heap held at depth 2^20: %d KiB", grown>>10)
}

// drainers counts the indication drainer goroutines running in the process.
func drainers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "rt.(*stream).drain(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
