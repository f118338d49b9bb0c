// Package topics is the multi-group view of the live runtime: many
// independent urcgc groups inside one process over one shared link. Each
// group is a full protocol entity — its own rotating coordinator, history
// buffer and causal order — multiplexed onto a single UDP socket (or one
// in-process mesh) by the group-id frame envelope from internal/wire.
//
// The runtime itself is internal/rt's: groups hash onto shard loops, each a
// goroutine owning its groups' core.Process instances, so G groups cost S
// protocol goroutines rather than G and independent groups make progress in
// parallel; one reader goroutine validates, decodes and demultiplexes
// incoming frames onto the shards. This package adds names only: its
// members publish what every rt member does (the topics_* link counters, and
// every per-entity series labelled with its node and group).
package topics

import "urcgc/internal/rt"

// Config configures one member's runtime (see rt.Config): Groups and Shards
// are what a multi-group member sets beyond a single-group one.
type Config = rt.Config

// Indication is one message processed in causal order on its group's stream.
type Indication = rt.Indication

// MultiNode is one member of every hosted group: G protocol entities over
// one socket, S shard loops, one reader.
type MultiNode = rt.Member

// MultiCluster is an in-process group of multi-group members, for tests and
// benchmarks, run in lockstep across every member and group.
type MultiCluster = rt.Mesh

// NewMultiNode binds the shared socket and prepares every group's protocol
// entity. Start launches the runtime; Stop halts it.
func NewMultiNode(cfg Config) (*MultiNode, error) { return rt.NewMember(cfg) }

// NewMultiCluster builds (but does not start) N in-process multi-group
// members. Config.Self and Config.Peers are ignored; every member hosts
// every group.
func NewMultiCluster(cfg Config) (*MultiCluster, error) { return rt.NewMesh(cfg) }
