package rt

import (
	"runtime"
	"testing"
	"time"

	"urcgc/internal/core"
)

// TestUDPNodeChurnIsHeapNeutral: constructing, starting and stopping members
// over and over — a test suite, the benchmark timing its set-ups — must
// neither retain memory nor churn a fresh half-megabyte recvmmsg buffer set
// per member: the sets are recycled across node lifetimes.
func TestUDPNodeChurnIsHeapNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	cycle := func() {
		peers := freePorts(t, 1)
		n, err := NewUDPNode(UDPConfig{
			Config:        core.Config{N: 1, K: 3, R: 8},
			Peers:         peers,
			RoundDuration: time.Hour,
			// Small queues leave the receive buffers as the node's only
			// sizeable allocation, so the bounds below are about them.
			InboxDepth: 16, IndicationDepth: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		n.Stop()
	}
	heap := func() (inuse, total uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse, ms.TotalAlloc
	}
	const cycles = 64
	const slab = 8 * (MaxDatagram + 1) // one node's burst receive buffers
	cycle()                            // warm: pools, resolver, lazy runtime state
	inuse0, total0 := heap()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	inuse1, total1 := heap()
	// The free list may hold one more receiver than it did after the warm-up
	// cycle; half a set on top covers the spans the members' own small
	// records leave partly used.
	if grown := int64(inuse1) - int64(inuse0); grown > slab*3/2 {
		t.Errorf("HeapInuse grew %d KiB over %d construct/Start/Stop cycles: more than one node's worth (%d KiB) is retained",
			grown/1024, cycles, slab/1024)
	}
	// "Recycled" is asserted as "well under a set per cycle".
	perCycle := (total1 - total0) / cycles
	t.Logf("allocated %d KiB per cycle", perCycle/1024)
	if perCycle > slab*2/3 {
		t.Errorf("each cycle allocated %d KiB: the %d KiB receive buffer set is not being recycled", perCycle/1024, slab/1024)
	}
}
