package rt

import (
	"time"

	"urcgc/internal/obs"
)

// clock is the one round clock: it opens round after round on every session
// of the members it drives. How rounds are paced is the link's choice.
//
// A Mesh runs in lockstep (barrier non-nil): every session finishes round r
// before any starts r+1, and at least RoundDuration elapses per round. The
// barrier removes scheduler-starvation artifacts — a member ticking late
// looks like an omission-faulty process and would eventually be excluded.
//
// A socket member free-runs off its own ticker: members sit on separate
// machines, drift and reordering surface as omissions the protocol repairs,
// and no clock synchronization service is required. What must hold is the
// member's own rate: the round is numbered by the tick's time, not by how
// many ticks arrived, because a ticker drops the ticks a stalled process
// missed and a member that counted them would be out of phase for good —
// sending its REQUESTs into everybody else's decision round until excluded.
type clock struct {
	members []*Member
	barrier chan struct{} // lockstep: one token per session per round
	stop    <-chan struct{}

	rounds     *obs.Counter   // nil without metrics
	barrierLat *obs.Histogram // lockstep with metrics: how long a round's barrier took
}

// newClock resolves the clock's instruments on the caller's goroutine, so
// they are on the registry from the moment the runtime was started.
func newClock(members []*Member, barrier chan struct{}, stop <-chan struct{}) *clock {
	c := &clock{members: members, barrier: barrier, stop: stop}
	if reg := members[0].cfg.Metrics; reg != nil {
		c.rounds = reg.Counter("rt_rounds_total")
		if barrier != nil {
			c.barrierLat = reg.Histogram("rt_round_barrier_seconds", obs.DurationBuckets)
		}
	}
	return c
}

func (c *clock) run() {
	cfg := &c.members[0].cfg
	rd := cfg.RoundDuration
	if c.barrier != nil {
		// One timer paces every round. It is only ever re-armed after its
		// tick was received, so its channel is empty at each Reset.
		pace := time.NewTimer(0)
		defer pace.Stop()
		<-pace.C
		for round := 0; ; round++ {
			start := time.Now()
			if !c.open(round) {
				return
			}
			if c.barrierLat != nil {
				c.barrierLat.ObserveSince(start)
			}
			if rest := rd - time.Since(start); rest > 0 {
				pace.Reset(rest)
				select {
				case <-pace.C:
				case <-c.stop:
					return
				}
			}
		}
	}
	m := c.members[0]
	source := m.ticks
	if source == nil {
		source = func(d time.Duration) (<-chan time.Time, func()) {
			t := time.NewTicker(d)
			return t.C, t.Stop
		}
	}
	epoch := time.Now()
	ticks, stopTicks := source(rd)
	defer stopTicks()
	for next := 0; ; {
		var stamp time.Time
		select {
		case <-c.stop:
			return
		case stamp = <-ticks:
		}
		// The k-th tick, due at epoch + k·rd, opens round k-1. The time is
		// read here, not taken from the tick: after a stall a ticker first
		// hands out the tick it had scheduled before it, stamped with that
		// old instant, and only the next one shows the gap — a period in
		// which members stalled together would disagree on the round. A
		// ticker never stamps ahead of the present; an injected source that
		// does paces the rounds by its ticks, not by the time.
		now := time.Now()
		if stamp.After(now) {
			now = stamp
		}
		due := int(now.Sub(epoch)/rd) - 1
		if missed := due - next; missed > 0 {
			// The host stalled and ticks were lost. The round that was missed
			// last runs now, back to back with the one that is due: the
			// member is late once — an omission the protocol repairs. Rounds
			// missed before that are skipped: run in a burst they would be
			// whole subruns in which this member hears nobody, counts every
			// coordinator silent and, coordinating, every peer — K of them
			// and it has excluded a healthy group by its own stall. And so is
			// a decision round (odd) whose subrun's opening was skipped: the
			// member would decide again in the last subrun it did open.
			if next = due - 1; missed > 1 && next%2 == 1 {
				next = due
			}
			if m.sock != nil {
				m.sock.ticksSkipped.Add(int64(missed))
			}
			m.warn.warnf("%d round ticks lost to a stall: resuming at round %d", missed, next)
		}
		for ; next <= due; next++ {
			c.open(next)
		}
	}
}

// open starts round on every session: fail-stopping members whose scheduled
// crash instant has passed, then queueing the tick — blocking under the
// lockstep barrier, where it also waits for every session to have run it and
// reports false when the clock was stopped meanwhile; on a free-running
// member a full shard inbox skips that session's tick, an overload omission.
func (c *clock) open(round int) bool {
	sessions := 0
	for _, m := range c.members {
		if m.cfg.Fault.Crashed(m.cfg.Self) {
			m.Kill()
		}
		for _, s := range m.sessions {
			e := event{kind: evTick, to: s, round: round}
			if c.barrier != nil {
				select {
				case s.shard.c <- s.shard.record(e):
					sessions++
				case <-c.stop:
					return false
				}
			} else if !s.shard.offer(e) {
				if m.sock != nil {
					m.sock.ticksSkipped.Inc()
				}
				m.warn.warnf("group %d round tick %d skipped: shard inbox full (overload omission)", s.group, round)
			}
		}
	}
	for ; sessions > 0; sessions-- {
		select {
		case <-c.barrier:
		case <-c.stop:
			return false
		}
	}
	if c.rounds != nil {
		c.rounds.Inc()
	}
	return true
}
