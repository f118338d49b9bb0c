//go:build linux && (amd64 || arm64)

package rt

import (
	"context"
	"syscall"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// refuseMmsg swaps both burst syscalls for ones the "kernel" refuses with
// ENOSYS, restoring the real ones on cleanup. The platform still *builds*
// the burst sender and receiver — the refusal happens at runtime, which is
// exactly the degradation path under test.
func refuseMmsg(t *testing.T) {
	t.Helper()
	prevSend, prevRecv := sendmmsgRaw, recvmmsgRaw
	sendmmsgRaw = func(fd uintptr, hdrs *mmsghdr, n int) (uintptr, syscall.Errno) {
		return 0, syscall.ENOSYS
	}
	recvmmsgRaw = func(fd uintptr, hdrs *mmsghdr, n int) (uintptr, syscall.Errno) {
		return 0, syscall.ENOSYS
	}
	t.Cleanup(func() { sendmmsgRaw, recvmmsgRaw = prevSend, prevRecv })
}

// TestMmsgRuntimeFallback pins the runtime degradation contract: a kernel
// that accepts socket construction but refuses sendmmsg/recvmmsg with
// ENOSYS must push the node onto classic single-datagram I/O, with every
// frame still arriving — the fallback is silent degradation, not loss — and
// the reader must unmap its burst receive set before it takes the classic loop.
// (mmsg tests mutate the package-level syscall seams, so this test must not
// run in parallel with other UDP tests; Go runs same-package tests
// sequentially unless t.Parallel is called, and none of these call it.)
func TestMmsgRuntimeFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	refuseMmsg(t)
	mapped := mappedSets.Load()

	const n, perNode = 3, 8
	reg := obs.New()
	nodes := udpNodes(t, n, UDPConfig{
		Config:        core.Config{N: n, K: 5, R: 16, SelfExclusion: true},
		RoundDuration: 3 * time.Millisecond,
		BatchWindow:   2 * time.Millisecond,
		Metrics:       reg,
	})
	// The burst machinery must have been constructed — the whole point is
	// that the refusal arrives only once the syscall runs.
	for _, node := range nodes {
		if node.m.shards[0].burst == nil {
			t.Fatal("burst sender was not built on a linux target")
		}
	}
	// No frame may be lost to the refusal: the group converges on the full
	// vector exactly as it would with the burst path live.
	sendEach(t, nodes, perNode)
	awaitProcessed(t, nodes, mid.SeqVector{perNode, perNode, perNode})
	// Every reader has fallen back, so none may still hold a receive set.
	if got := mappedSets.Load(); got != mapped {
		t.Errorf("%d receive sets outlive the fallback to the classic reader", got-mapped)
	}

	// Every sender must have latched the refusal and disabled its burst
	// path (checked via Snapshot so the read happens on the loop goroutine
	// that owns the sender).
	for i, node := range nodes {
		var disabled bool
		err := node.Snapshot(context.Background(), func(*core.Process) { disabled = node.m.shards[0].burst.disabled })
		if err != nil {
			t.Fatal(err)
		}
		if !disabled {
			t.Errorf("node %d: burst sender still enabled after ENOSYS", i)
		}
	}
	// Frames moved despite the refused bursts.
	if reg.Counter("topics_send_datagrams_total").Value() == 0 {
		t.Error("no datagrams accounted on the classic fallback path")
	}
}
