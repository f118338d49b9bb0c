package rt

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/wire"
)

// Config configures a live member, or every member of an in-process cluster:
// the one configuration of the one runtime. The embedded core.Config applies
// to every hosted group; all groups share the member identity, the peer set
// and the link. UDPConfig and topics.Config are this type.
type Config struct {
	core.Config
	// Groups is how many independent groups (ids 0..Groups-1) the member
	// hosts. Group 0 is wire-compatible with single-group members. Default 1.
	Groups int
	// Shards is how many shard loops carry the groups. Groups hash onto
	// shards (group mod Shards); each shard is one goroutine owning its
	// groups' protocol entities. Default min(Groups, GOMAXPROCS).
	Shards int
	// Self is this member's identity in every group; Peers[Self] is its bind
	// address. An in-process cluster numbers its members itself.
	Self mid.ProcID
	// Peers maps every ProcID to its UDP address, e.g. "10.0.0.7:7701".
	// Ignored by an in-process cluster.
	Peers []string
	// RoundDuration is the wall-clock length of one protocol round. It must
	// comfortably exceed the link's delivery time: default 20ms over
	// sockets, 2ms in process.
	RoundDuration time.Duration
	// BatchWindow enables the coalescing sender: concurrent Send/SendCausal
	// calls share a window that enters the protocol as one submission step
	// and leaves together as DataBatch frames. A window closes when the
	// BatchMax / core.DefaultBatchBytes budgets fill, when its first Send is
	// the group's only one outstanding (at once), when the group's shard loop
	// has just run an event for the group while its protocol has nothing
	// queued, or when BatchWindow has passed since it opened, whichever comes
	// first: BatchWindow bounds only a Send that joined while another was
	// returning its confirm, or one held behind a queued backlog. Zero
	// disables coalescing: every Send is its own inbox event and its own
	// flush, so with BatchMax > 1 a subrun may carry up to BatchMax
	// single-message Data frames of a member instead of fewer, wider
	// DataBatch frames. Either way a subrun carries at most BatchMax messages
	// of a member. When set while BatchMax is zero, BatchMax defaults to
	// core.DefaultBatchMax so the batches actually drain.
	BatchWindow time.Duration
	// InboxDepth bounds each shard's event queue; overflow drops datagrams,
	// like any datagram network. Default 4096.
	InboxDepth int
	// IndicationDepth bounds how many indications each group's stream holds
	// for a reader that falls behind; the next one is dropped and counted.
	// It allocates nothing: a stream's memory follows its backlog. Default
	// 4096.
	IndicationDepth int
	// Metrics, when non-nil, receives live counters, gauges and histograms
	// for every hosted protocol entity (series labelled {node, group}, group
	// "0" included), the topics_* link counters, and trace events for
	// by-design omissions. Nil costs nothing.
	Metrics *obs.Registry
	// Lifecycle, when non-nil, enables per-message lifecycle tracing on
	// every hosted entity (spans readable via Lifecycle, histograms fed into
	// Metrics when set). Nil keeps the hot path free of stage callbacks.
	Lifecycle *lifecycle.Options
	// Fault, when non-nil, consults a wall-clock fault injector at the link
	// boundary: before each datagram leaves its sender, after it reaches
	// its receiver and passed validation, and once per round to fail-stop
	// scheduled crashes. On a socket member the hook sees only this member's
	// boundary, so a cluster-wide schedule needs the same seeded schedule on
	// every member. Nil costs one pointer check per datagram. When Lifecycle
	// is also set, stuck-span watchdog lines name the injected fault that
	// plausibly caused the stall.
	Fault *faultrt.Hook
	// Logf receives throttled operator-visible warnings: malformed or
	// oversize datagrams, socket errors, skipped ticks — omissions that
	// would otherwise be silently recovered and invisible. Nil means
	// log.Printf.
	Logf func(format string, args ...any)
	// Captures holds one flight recorder per member, indexed by ProcID: a
	// member's entry, when non-nil, records every frame crossing its link —
	// ingress with the validator's verdict, egress with the fault verdict,
	// every group on the one ring — served on /capture and replayable offline
	// by urcgc-ctl replay. A nil entry, or a member past the slice's length,
	// costs one pointer check per frame and zero allocations.
	Captures []*capture.Ring
	// Observe, when non-nil, is asked once per protocol entity — every
	// hosted group at construction, and again for each restarted
	// incarnation — for callbacks that run after the runtime's own, on the
	// entity's loop goroutine. core.Audit is the one that feeds a
	// faultrt.Checker; the chaos harness rebaselines its checkers and learns
	// of rejoins through it.
	Observe func(node mid.ProcID, group uint32) core.Callbacks
}

// UDPConfig configures a single-group member over real UDP sockets — the
// deployment the paper's concluding remarks describe as the prototype over
// an Ethernet LAN.
type UDPConfig = Config

// fill sets the defaults; inProcess selects the in-process link's.
func (c *Config) fill(inProcess bool) {
	if c.Groups == 0 {
		c.Groups = 1
	}
	if c.Shards == 0 {
		c.Shards = min(c.Groups, runtime.GOMAXPROCS(0))
	}
	if c.RoundDuration == 0 {
		c.RoundDuration = 20 * time.Millisecond
		if inProcess {
			c.RoundDuration = 2 * time.Millisecond
		}
	}
	if c.BatchWindow > 0 && c.BatchMax == 0 {
		c.BatchMax = core.DefaultBatchMax
	}
	if c.InboxDepth == 0 {
		c.InboxDepth = 4096
	}
	if c.IndicationDepth == 0 {
		c.IndicationDepth = 4096
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

func (c *Config) validate() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Groups < 1 || c.Groups > wire.MaxGroupID {
		return fmt.Errorf("rt: %d groups outside [1,%d]", c.Groups, int64(wire.MaxGroupID))
	}
	if c.Shards < 1 {
		return fmt.Errorf("rt: %d shards", c.Shards)
	}
	return nil
}

// Indication is the urcgc-data.Ind primitive: a message processed at this
// member, delivered in causal order on its group's stream, which holds up to
// IndicationDepth of them for a slow reader. Its labels and
// payload are carved from a chunk shared with other messages (DESIGN.md §7
// rule 6): a consumer that keeps one long after the group has moved on, and
// wants it alone, copies it.
type Indication struct {
	Msg causal.Message
}

// MaxDatagram bounds datagrams in both directions (a mixed deployment must
// agree on the limit). The urcgc PDUs for paper-scale groups fit comfortably;
// jumbo decisions for very large n would need fragmentation, which the paper
// delegates to the transport layer.
const MaxDatagram = 64 * 1024

var errStopped = fmt.Errorf("rt: member stopped")
