package rt

import (
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// installLifecycle extends a member's callbacks with the lifecycle stage
// hooks. A nil tracer returns cb untouched, so the send/deliver hot path
// carries no tracing branches when the layer is disabled — the same
// optional-callback pattern nodeObs uses. Apply it after nodeObs.Install
// so the chains compose; every hook runs on the goroutine driving the
// protocol entity.
func installLifecycle(tr *lifecycle.Tracer, cb core.Callbacks) core.Callbacks {
	if tr == nil {
		return cb
	}
	prevGenerate := cb.OnGenerate
	cb.OnGenerate = func(m *causal.Message) {
		if prevGenerate != nil {
			prevGenerate(m)
		}
		tr.Generated(m.ID)
	}
	prevBroadcast := cb.OnBroadcast
	cb.OnBroadcast = func(m *causal.Message) {
		if prevBroadcast != nil {
			prevBroadcast(m)
		}
		tr.Broadcast(m.ID)
	}
	prevWait := cb.OnWait
	cb.OnWait = func(m *causal.Message, missing mid.DepList) {
		if prevWait != nil {
			prevWait(m, missing)
		}
		tr.Waiting(m.ID, missing)
	}
	// nodeObs installs OnStable for the stability-sum gauge; chain it, do
	// not overwrite.
	prevStable := cb.OnStable
	cb.OnStable = func(clean mid.SeqVector) {
		if prevStable != nil {
			prevStable(clean)
		}
		tr.StableTo(clean)
	}
	prevProcess := cb.OnProcess
	cb.OnProcess = func(m *causal.Message) {
		if prevProcess != nil {
			prevProcess(m)
		}
		tr.Processed(m.ID)
	}
	prevDiscard := cb.OnDiscard
	cb.OnDiscard = func(m *causal.Message) {
		if prevDiscard != nil {
			prevDiscard(m)
		}
		tr.Discarded(m.ID)
	}
	prevDecision := cb.OnDecision
	cb.OnDecision = func(d *wire.Decision) {
		if prevDecision != nil {
			prevDecision(d)
		}
		tr.DecisionApplied(d.MaxProcessed)
	}
	prevRound := cb.OnRoundEnd
	cb.OnRoundEnd = func(ro core.RoundObservation) {
		if prevRound != nil {
			prevRound(ro)
		}
		tr.Tick() // the watchdog heartbeat: self-rate-limited
	}
	return cb
}
