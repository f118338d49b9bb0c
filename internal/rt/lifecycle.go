package rt

import (
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// lifecycleCallbacks returns the lifecycle stage hooks of one protocol
// entity. A nil tracer returns no hooks, so chained onto the runtime's own
// the send/deliver hot path carries no tracing branches when the layer is
// disabled. Every hook runs on the goroutine driving the protocol entity.
func lifecycleCallbacks(tr *lifecycle.Tracer) core.Callbacks {
	if tr == nil {
		return core.Callbacks{}
	}
	return core.Callbacks{
		OnGenerate:  func(m *causal.Message) { tr.Generated(m.ID) },
		OnBroadcast: func(m *causal.Message) { tr.Broadcast(m.ID) },
		OnWait:      func(m *causal.Message, missing mid.DepList) { tr.Waiting(m.ID, missing) },
		OnStable:    tr.StableTo,
		OnProcess:   func(m *causal.Message) { tr.Processed(m.ID) },
		OnDiscard:   func(m *causal.Message) { tr.Discarded(m.ID) },
		OnDecision:  func(d *wire.Decision) { tr.DecisionApplied(d.MaxProcessed) },
	}
}
