package core

// Chain composes two sets of callbacks field by field: a's hook, then b's.
// Where one side is nil the other is kept as it is, so a disabled observer
// adds no wrapper. Every host composes its taps through it: the live
// runtime's metrics, tracing and Config.Observe, and the simulated cluster's
// measurements, checker feed and ClusterConfig.Observe.
func Chain(a, b Callbacks) Callbacks {
	return Callbacks{
		OnGenerate:      then1(a.OnGenerate, b.OnGenerate),
		OnBroadcast:     then1(a.OnBroadcast, b.OnBroadcast),
		OnWait:          then2(a.OnWait, b.OnWait),
		OnStable:        then1(a.OnStable, b.OnStable),
		OnProcess:       then1(a.OnProcess, b.OnProcess),
		OnDiscard:       then1(a.OnDiscard, b.OnDiscard),
		OnLeave:         then1(a.OnLeave, b.OnLeave),
		OnDecision:      then1(a.OnDecision, b.OnDecision),
		OnJoinInstalled: then1(a.OnJoinInstalled, b.OnJoinInstalled),
		OnJoined:        then0(a.OnJoined, b.OnJoined),
		OnFastForward:   then2(a.OnFastForward, b.OnFastForward),
	}
}

func then0(a, b func()) func() {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func() { a(); b() }
}

func then1[T any](a, b func(T)) func(T) {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func(x T) { a(x); b(x) }
}

func then2[T, U any](a, b func(T, U)) func(T, U) {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func(x T, y U) { a(x, y); b(x, y) }
}
