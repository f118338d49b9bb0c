package urcgc

import (
	"os"
	"testing"

	"urcgc/internal/benchsuite"
)

// TestGroupScalingSmoke is the `make bench-groups` gate: hosting two groups
// over two shards must beat the single-group baseline by at least 1.5x in
// aggregate confirmed msgs/s. Per-group throughput is bound by its closed
// loop's latency (one coalescer window per confirm), not by the cores, so
// if multiplexing a second group does NOT add throughput, the sharded
// runtime has regressed into serializing its groups. Gated behind an env
// var because it measures wall-clock rates — a plain `go test ./...` (and
// especially -race) should not depend on scheduler timing.
func TestGroupScalingSmoke(t *testing.T) {
	if os.Getenv("URCGC_BENCH_GROUPS") == "" {
		t.Skip("set URCGC_BENCH_GROUPS=1 (or run `make bench-groups`) to run the group-scaling smoke")
	}
	single := testing.Benchmark(benchsuite.GroupScalingG1S1)
	multi := testing.Benchmark(benchsuite.GroupScalingG2S2)
	s := single.Extra["msgs/s"]
	m := multi.Extra["msgs/s"]
	if s <= 0 || m <= 0 {
		t.Fatalf("benchmarks reported no rate: single %v msgs/s, multi %v msgs/s", s, m)
	}
	t.Logf("aggregate: 1 group/1 shard %.0f msgs/s, 2 groups/2 shards %.0f msgs/s (%.2fx)", s, m, m/s)
	if m < 1.5*s {
		t.Fatalf("2 groups over 2 shards sustained %.0f msgs/s, want >= 1.5x the single-group %.0f msgs/s", m, s)
	}
}
