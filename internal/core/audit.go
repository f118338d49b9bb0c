package core

import (
	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/mid"
)

// Audit returns the callbacks that feed node's protocol entity to ck, every
// clause of Definition 3.2 in the order the entity produces it: processing
// (Record), destruction by agreement (Discard), fail-stop on leaving (Halt),
// and, for a rejoined incarnation, the installed join baseline (Restart) and
// the prefixes recovery skipped as purged (FastForward). Each host that
// judges a run — a live runtime through rt.Config.Observe, the capture
// replayer — attaches its checker through this one adapter.
func Audit(ck *faultrt.Checker, node mid.ProcID) Callbacks {
	return Callbacks{
		OnProcess:       func(m *causal.Message) { ck.Record(node, m) },
		OnDiscard:       func(m *causal.Message) { ck.Discard(node, m.ID) },
		OnLeave:         func(LeaveReason) { ck.Halt(node) },
		OnJoinInstalled: func(stable mid.SeqVector) { ck.Restart(node, stable) },
		OnFastForward:   func(q mid.ProcID, to mid.Seq) { ck.FastForward(node, q, to) },
	}
}
