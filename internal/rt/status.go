package rt

import (
	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// Status is a consistent sample of one hosted group's protocol entity at a
// live member, captured inside the shard loop goroutine and cloned, so it is
// safe to hold and read from anywhere. It is the supported way to observe a
// live member; the raw core.Process accessors are loop-goroutine-only (see
// the core.Process concurrency contract). One Status per hosted group makes
// up the NodeStatus document /status?format=json serves.
type Status struct {
	// ID is the member's process identifier.
	ID mid.ProcID `json:"id"`
	// N is the group cardinality (live and crashed members).
	N int `json:"n"`
	// Group is the hosted group this entity belongs to.
	Group uint32 `json:"group"`
	// Running reports whether the member still executes the protocol.
	Running bool `json:"running"`
	// Joining reports whether the member is a restarted incarnation still
	// working its way back into the view: soliciting a sponsor, installing
	// the state transfer, or waiting for an admitting decision. A joining
	// member does not generate and is legitimately behind.
	Joining bool `json:"joining,omitempty"`
	// Subrun is the clock subrun T the member is in — the local view of the
	// token position in the coordinator rotation — and Early the index k of
	// the subrun arrivals opened inside it, 0 for the clock's own: the
	// member is in subrun T+k (see core.SplitSubrun).
	Subrun int64 `json:"subrun"`
	Early  int64 `json:"early,omitempty"`
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
	// The health facts, each a clock subrun (see the core.Process accessors
	// of the same names): of the last decision that reached the member from
	// the circulation, since which its waiting list has been non-empty, of
	// its last stability advance, and of the last crash declaration its view
	// adopted, with the declared member (mid.None before any).
	TokenSubrun  int64      `json:"token_subrun"`
	WaitingSince int64      `json:"waiting_since"`
	StableSubrun int64      `json:"stable_subrun"`
	Declared     mid.ProcID `json:"declared"`
	DeclaredAt   int64      `json:"declared_at"`
}

// NodeStatus is one member's /status?format=json document, and what
// `urcgc-ctl inspect` consumes: the member's identity and one full Status per
// hosted group, in group order — the same shape whether the member hosts one
// group or many.
type NodeStatus struct {
	ID mid.ProcID `json:"id"`
	N  int        `json:"n"`
	// K is the silence threshold of every hosted group, in clock subruns.
	K      int      `json:"k"`
	Groups []Status `json:"groups"`
}

// statusOf samples one group's process. Must run on the goroutine driving p.
func statusOf(group uint32, p *core.Process) Status {
	clock, early := core.SplitSubrun(p.Subrun())
	st := Status{
		ID:              p.ID(),
		N:               p.View().N(),
		Group:           group,
		Running:         p.Running(),
		Joining:         p.Joining(),
		Subrun:          clock,
		Early:           early,
		Coordinator:     p.CurrentCoordinator(),
		HistoryLen:      p.HistoryLen(),
		HistoryBySender: p.History().PerSender(),
		WaitingLen:      p.WaitingLen(),
		Pending:         p.PendingSubmissions(),
		Processed:       p.Processed().Clone(),
		StableTo:        p.StableTo().Clone(),
		Alive:           append([]bool(nil), p.View().AliveMask()...),
		Stats:           p.Stats,
		TokenSubrun:     p.TokenSubrun(),
		WaitingSince:    p.WaitingSince(),
		StableSubrun:    p.StableSubrun(),
	}
	st.Declared, st.DeclaredAt = p.Declared()
	return st
}
