package faultrt

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"urcgc/internal/mid"
)

// Burst is one window of 1/Nth omissions.
type Burst struct {
	From, To time.Duration
	Nth      int // drop every Nth datagram inside the window
}

// Schedule is a deterministic chaos plan expanded from a seed: one crash,
// one healed partition, omission bursts, and background delay/duplication.
// The expansion is a pure function of the parameters, so re-running with
// the same seed yields the identical planned-fault trace (String) even
// though wall-clock consultation interleavings differ run to run.
type Schedule struct {
	Seed     int64
	N        int
	Duration time.Duration
	Round    time.Duration // the runtime's round length (subrun = 2 rounds)
	K        int           // the protocol's silence threshold

	// CrashProc fail-stops at CrashAt; the group's embedded decision
	// mechanism must detect and exclude it without suspending processing.
	CrashProc mid.ProcID
	CrashAt   time.Duration

	// The partition window is kept shorter than K subruns, so it heals as a
	// burst of omissions: nobody is declared crashed, and every message
	// crossing the healed cut is recovered from history (the paper's
	// Section 3 general-omission reading of a transient network cut).
	PartFrom, PartTo time.Duration
	PartSideA        map[mid.ProcID]bool

	// Bursts are the "1 omission each Nth message" windows of Figure 4.
	Bursts []Burst

	// Background delay (reordering) and duplication, full-run.
	DelayNth int
	DelayBy  time.Duration
	DelayJit time.Duration
	DupNth   int
}

// NewSchedule expands a seed into a chaos plan for an n-member group
// running with the given round length and silence threshold K over the
// given fault-phase duration.
func NewSchedule(seed int64, n int, duration, round time.Duration, k int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{
		Seed: seed, N: n, Duration: duration, Round: round, K: k,
	}
	frac := func(lo, hi float64) time.Duration {
		return time.Duration((lo + (hi-lo)*rng.Float64()) * float64(duration))
	}

	// One crash, early enough that detection, exclusion and post-crash
	// recovery all happen inside the run.
	s.CrashProc = mid.ProcID(rng.Intn(n))
	s.CrashAt = frac(0.25, 0.40)

	// One healed partition: strictly shorter than K subruns (a subrun is
	// two rounds), placed after the crash settles.
	subrun := 2 * round
	maxCut := time.Duration(k-1) * subrun
	if maxCut < subrun {
		maxCut = subrun
	}
	s.PartFrom = frac(0.55, 0.65)
	s.PartTo = s.PartFrom + maxCut
	s.PartSideA = make(map[mid.ProcID]bool)
	sideA := 1
	if n > 3 {
		sideA += rng.Intn(n/2 - 1 + 1) // 1..n/2 members on the small side
	}
	for len(s.PartSideA) < sideA {
		s.PartSideA[mid.ProcID(rng.Intn(n))] = true
	}

	// Two omission bursts at 1/100, one before and one after the cut.
	s.Bursts = []Burst{
		{From: frac(0.05, 0.10), Nth: 100},
		{From: frac(0.75, 0.85), Nth: 100},
	}
	for i := range s.Bursts {
		s.Bursts[i].To = s.Bursts[i].From + duration/10
	}

	// Background reordering and duplication at low, co-prime cadences so
	// they never lock phase with the bursts.
	s.DelayNth = 97
	s.DelayBy = round / 2
	s.DelayJit = 2 * round
	s.DupNth = 131
	return s
}

// Injector builds a fresh composed injector realizing the plan. Counter
// state lives in the returned injector, so each call starts a new replay.
func (s *Schedule) Injector() Injector {
	m := Multi{
		CrashAt{Proc: s.CrashProc, At: s.CrashAt},
		Partition{From: s.PartFrom, To: s.PartTo, SideA: s.PartSideA},
	}
	for _, b := range s.Bursts {
		m = append(m, During{From: b.From, To: b.To,
			Inner: &DropEvery{N: b.Nth, Side: AtSend}})
	}
	if s.DelayNth > 0 {
		m = append(m, NewDelayEvery(s.DelayNth, s.DelayBy, s.DelayJit, AtRecv, s.Seed+1))
	}
	if s.DupNth > 0 {
		m = append(m, &DupEvery{N: s.DupNth, Copies: 1, Side: AtSend})
	}
	return m
}

// String renders the plan — the seed-deterministic fault trace a soak run
// re-produces identically under the same seed.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d n=%d duration=%v round=%v k=%d\n",
		s.Seed, s.N, s.Duration, s.Round, s.K)
	fmt.Fprintf(&b, "  crash p%d at %v\n", s.CrashProc, s.CrashAt.Round(time.Millisecond))
	var sideA []string
	for p := mid.ProcID(0); int(p) < s.N; p++ {
		if s.PartSideA[p] {
			sideA = append(sideA, fmt.Sprintf("p%d", p))
		}
	}
	fmt.Fprintf(&b, "  partition {%s} from %v to %v (heals)\n",
		strings.Join(sideA, ","), s.PartFrom.Round(time.Millisecond), s.PartTo.Round(time.Millisecond))
	for _, burst := range s.Bursts {
		fmt.Fprintf(&b, "  omission burst 1/%d from %v to %v\n",
			burst.Nth, burst.From.Round(time.Millisecond), burst.To.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "  delay every %d recvs by %v+[0,%v) (reordering)\n",
		s.DelayNth, s.DelayBy, s.DelayJit)
	fmt.Fprintf(&b, "  duplicate every %d sends\n", s.DupNth)
	return b.String()
}
