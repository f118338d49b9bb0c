package rt

import (
	"runtime"
	"testing"
	"time"

	"urcgc/internal/core"
)

// TestUDPNodeChurnIsHeapNeutral: constructing, starting and stopping members
// over and over — a test suite, the benchmark timing its set-ups — must retain
// no memory: each member's half-megabyte recvmmsg receive set is unmapped by
// the time Stop returns, and the heap does not grow.
func TestUDPNodeChurnIsHeapNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	mapped := mappedSets.Load()
	cycle := func() {
		peers := freePorts(t, 1)
		n, err := NewUDPNode(UDPConfig{
			Config:        core.Config{N: 1, K: 3, R: 8},
			Peers:         peers,
			RoundDuration: time.Hour,
			// Small queues keep the node's own records small, so the heap
			// bound below is about what a stopped node leaves behind.
			InboxDepth: 16, IndicationDepth: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		n.Stop()
		if got := mappedSets.Load(); got != mapped {
			t.Fatalf("%d receive sets still mapped after Stop", got-mapped)
		}
	}
	inuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	const cycles = 64
	const slab = 8 * (MaxDatagram + 1) // one node's burst receive set
	cycle()                            // warm: pools, resolver, lazy runtime state
	inuse0 := inuse()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	grown := int64(inuse()) - int64(inuse0)
	t.Logf("HeapInuse grew %d KiB over %d cycles", grown/1024, cycles)
	if grown > slab/4 {
		t.Errorf("HeapInuse grew %d KiB over %d construct/Start/Stop cycles: more than %d KiB is retained",
			grown/1024, cycles, slab/4/1024)
	}
}
