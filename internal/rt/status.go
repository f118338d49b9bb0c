package rt

import (
	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// Status is a consistent sample of one live member's protocol state,
// captured inside the node loop goroutine and cloned, so it is safe to
// hold and read from anywhere. It is the supported way to observe a live
// member; the raw core.Process accessors are loop-goroutine-only (see the
// core.Process concurrency contract). The JSON shape is what
// /status?format=json serves and what urcgc-inspect consumes.
type Status struct {
	// ID is the member's process identifier.
	ID mid.ProcID `json:"id"`
	// N is the group cardinality (live and crashed members).
	N int `json:"n"`
	// Running reports whether the member still executes the protocol.
	Running bool `json:"running"`
	// Joining reports whether the member is a restarted incarnation still
	// working its way back into the view: soliciting a sponsor, installing
	// the state transfer, or waiting for an admitting decision. A joining
	// member does not generate and is legitimately behind.
	Joining bool `json:"joining,omitempty"`
	// Subrun is the member's current subrun index — the local view of the
	// token position in the coordinator rotation.
	Subrun int64 `json:"subrun"`
	// Coordinator is the coordinator of the current subrun under this
	// member's view.
	Coordinator mid.ProcID `json:"coordinator"`
	// HistoryLen is the history buffer length (the Figure 6 gauge).
	HistoryLen int `json:"history_len"`
	// HistoryBySender is the per-sender history occupancy: how many of
	// each sequence's messages this member still retains.
	HistoryBySender []int `json:"history_by_sender"`
	// WaitingLen is the waiting-list length.
	WaitingLen int `json:"waiting_len"`
	// Pending is the number of user messages queued for future rounds.
	Pending int `json:"pending"`
	// Processed is a clone of the last-processed vector.
	Processed mid.SeqVector `json:"processed"`
	// StableTo is a clone of the stability watermark from the freshest
	// full-group decision: the member's local stability frontier.
	StableTo mid.SeqVector `json:"stable_to"`
	// Alive is a clone of the member's view: Alive[q] reports whether it
	// believes member q alive.
	Alive []bool `json:"alive"`
	// Stats is a copy of the protocol activity counters.
	Stats core.Stats `json:"stats"`
	// GroupProcessed, when the member hosts multiple groups (internal/topics),
	// is the per-group processed-message count; empty for single-group
	// members, so existing consumers see an unchanged shape.
	GroupProcessed []int64 `json:"group_processed,omitempty"`
	// Groups, when the member hosts multiple groups, is a per-group
	// protocol summary — what urcgc-inspect needs to judge view divergence
	// and progress skew per group instead of whole-node. Empty for
	// single-group members.
	Groups []GroupStatus `json:"groups,omitempty"`
}

// GroupStatus is one hosted group's protocol summary inside a multi-group
// member's Status: enough to compare views and frontiers across members
// without shipping every group's full Status.
type GroupStatus struct {
	Group        uint32        `json:"group"`
	Running      bool          `json:"running"`
	Joining      bool          `json:"joining,omitempty"`
	Subrun       int64         `json:"subrun"`
	Coordinator  mid.ProcID    `json:"coordinator"`
	Alive        []bool        `json:"alive"`
	Processed    mid.SeqVector `json:"processed"`
	StableTo     mid.SeqVector `json:"stable_to"`
	ProcessedSum int64         `json:"processed_sum"`
	StableSum    int64         `json:"stable_sum"`
	WaitingLen   int           `json:"waiting_len"`
	HistoryLen   int           `json:"history_len"`
}

// groupStatusOf samples one group's process into the compact per-group
// shape. Like statusOf it must run on the goroutine driving p.
func groupStatusOf(group uint32, p *core.Process) GroupStatus {
	return GroupStatus{
		Group:        group,
		Running:      p.Running(),
		Joining:      p.Joining(),
		Subrun:       p.Subrun(),
		Coordinator:  p.CurrentCoordinator(),
		Alive:        append([]bool(nil), p.View().AliveMask()...),
		Processed:    p.Processed().Clone(),
		StableTo:     p.StableTo().Clone(),
		ProcessedSum: int64(p.Processed().Sum()),
		StableSum:    int64(p.StableTo().Sum()),
		WaitingLen:   p.WaitingLen(),
		HistoryLen:   p.HistoryLen(),
	}
}

// statusOf samples p. Must run on the goroutine driving p.
func statusOf(p *core.Process) Status {
	return Status{
		ID:              p.ID(),
		N:               p.View().N(),
		Running:         p.Running(),
		Joining:         p.Joining(),
		Subrun:          p.Subrun(),
		Coordinator:     p.CurrentCoordinator(),
		HistoryLen:      p.HistoryLen(),
		HistoryBySender: p.History().PerSender(),
		WaitingLen:      p.WaitingLen(),
		Pending:         p.PendingSubmissions(),
		Processed:       p.Processed().Clone(),
		StableTo:        p.StableTo().Clone(),
		Alive:           append([]bool(nil), p.View().AliveMask()...),
		Stats:           p.Stats,
	}
}
