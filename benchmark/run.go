package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
)

// metric is one named value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are one run's knobs. The driver sets seed, seconds and trace; the
// rest only differ in -smoke and the tests.
type options struct {
	seed    int64
	seconds float64
	warmup  time.Duration
	// setup_s is the median over the set-ups timed before the measured one:
	// at least setups of them, and more until setupFor has passed.
	setups   int
	setupFor time.Duration
	trace    bool // per-layer pass: obs.Registry, lifecycle, spans, layer drill
	outDir   string
	verbose  bool
	// quietGate makes every attempt wait for a quiet host first (quiet.go);
	// stateDir, when set, holds the ledger that caps those waits.
	quietGate bool
	stateDir  string
}

const (
	// settle separates member construction from load start, so the crash
	// instant can be fixed against the fault hook's clock (which starts at
	// construction) before the first send is due.
	settle = 300 * time.Millisecond
	// sliceSeconds is the nominal length of one slice of the measured
	// window. Rates and latency quantiles are taken per slice and reported
	// as the median over slices, so a scheduling stall of the host (they
	// reach hundreds of milliseconds on a shared 2-core VM) spoils the
	// slices it touches, not the run.
	sliceSeconds = 3
	// maxLiveSpans bounds the spans a traced live pass retains verbatim.
	maxLiveSpans = 20000
)

// slice is one stretch of the measured window. A send belongs to the slice
// its due time falls in.
type slice struct {
	confirmed atomic.Int64
	confirm   hist // due time to Send return
	delivery  hist // due time to indication, every (message, member) pair
	// Buffer peaks the traced pass's Status poll saw during the slice.
	historyPeak, waitingPeak atomic.Int64
}

// window is the measured interval, cut into equal slices.
type window struct {
	w0, w1   int64 // ns since epoch
	sliceLen int64
	slices   []slice
}

// slicing cuts a window of the given length into equal slices of about
// sliceSeconds each.
func slicing(seconds float64) (n int, sliceLen int64) {
	n = max(int(seconds/sliceSeconds+0.5), 1)
	return n, int64(seconds*float64(time.Second)) / int64(n)
}

func newWindow(w0 int64, n int, sliceLen int64) *window {
	return &window{w0: w0, w1: w0 + int64(n)*sliceLen, sliceLen: sliceLen, slices: make([]slice, n)}
}

// sliceOf returns the slice an instant falls in, nil outside the window.
func (win *window) sliceOf(ns int64) *slice {
	if win == nil || ns < win.w0 || ns >= win.w1 {
		return nil
	}
	return &win.slices[min(int((ns-win.w0)/win.sliceLen), len(win.slices)-1)]
}

// liveRun is one started cluster with its indication consumers attached.
type liveRun struct {
	w       *workload
	members []member
	stop    func()
	reg     *obs.Registry // nil on the untraced pass
	born    time.Time     // construction start; the fault hook's clock zero
	setupS  float64       // construction to first confirm at every member

	// One audit per (group, member) stream, plus faultrt.Checker per group
	// (MIDs recur across groups) where the workload's volume allows it.
	audits   [][]*streamAudit
	checkers []*faultrt.Checker
	win      atomic.Pointer[window] // nil until the load is about to start

	stopConsumers chan struct{}
	consumers     sync.WaitGroup
	shutOnce      sync.Once
	warnings      atomic.Int64

	spanMu sync.Mutex
	spans  *spanLog // nil on the untraced pass
}

// crashAt is the victim's fail-stop instant relative to liveRun.born.
func crashAt(o options) time.Duration {
	return settle + o.warmup + time.Duration(o.seconds/3*float64(time.Second))
}

// bringUp hosts the workload's members, attaches one auditing consumer per
// indication stream, and waits for a first confirm at every member of
// every group.
func bringUp(w *workload, o options) (*liveRun, error) {
	lr := &liveRun{w: w, born: time.Now(), stopConsumers: make(chan struct{})}
	h := hooks{warnings: func(format string, args ...any) {
		lr.warnings.Add(1)
		if o.verbose {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}}
	if o.trace {
		lr.reg = obs.New()
		lr.spans = newSpanLog(maxLiveSpans)
		h.metrics = lr.reg
		h.lifecycle = &lifecycle.Options{Capacity: lifecycleCapacity}
	}
	if w.dropRate > 0 || w.crash {
		inj := faultrt.Multi{faultrt.NewDropRate(w.dropRate, faultrt.AtSend, o.seed)}
		if w.crash {
			inj = append(inj, faultrt.CrashAt{Proc: mid.ProcID(w.victim()), At: crashAt(o)})
		}
		h.fault = faultrt.NewHook(inj, lr.reg)
	}
	var err error
	lr.members, lr.stop, err = w.hostMembers(h)
	if err != nil {
		return nil, fmt.Errorf("%s: host members: %w", w.name, err)
	}
	lr.audits = make([][]*streamAudit, w.groups)
	lr.checkers = make([]*faultrt.Checker, w.groups)
	for g := range lr.audits {
		for range lr.members {
			lr.audits[g] = append(lr.audits[g], newStreamAudit(w.n))
		}
		if w.checker {
			lr.checkers[g] = faultrt.NewChecker()
		}
	}
	for i, m := range lr.members {
		for g := 0; g < w.groups; g++ {
			i, m, g := i, m, g
			lr.consumers.Add(1)
			go func() {
				defer lr.consumers.Done()
				m.consume(uint32(g), lr.stopConsumers, func(msg *causal.Message) { lr.indicated(i, g, msg) })
			}()
		}
	}
	// First confirm everywhere: one send per (member, group), in parallel.
	errs := make(chan error, w.n*w.groups)
	for i, m := range lr.members {
		for g := 0; g < w.groups; g++ {
			i, m, g := i, m, g
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), sendTimeout)
				defer cancel()
				_, err := m.send(ctx, uint32(g), stampedPayload(nowNs()))
				if err != nil {
					err = fmt.Errorf("%s: first send at member %d group %d: %w", w.name, i, g, err)
				}
				errs <- err
			}()
		}
	}
	for k := 0; k < w.n*w.groups; k++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	lr.setupS = time.Since(lr.born).Seconds()
	if err != nil {
		lr.shutdown()
		return nil, err
	}
	return lr, nil
}

func stampedPayload(ns int64) []byte {
	p := make([]byte, payloadSize)
	binary.BigEndian.PutUint64(p, uint64(ns))
	return p
}

// indicated audits one indication and, for messages due inside the
// measured window, records the paper's delay D.
func (lr *liveRun) indicated(member, group int, msg *causal.Message) {
	now := nowNs()
	lr.audits[group][member].record(member, msg)
	if c := lr.checkers[group]; c != nil {
		c.Record(mid.ProcID(member), msg)
	}
	if len(msg.Payload) < 8 {
		return
	}
	due := int64(binary.BigEndian.Uint64(msg.Payload))
	s := lr.win.Load().sliceOf(due)
	if s == nil {
		return
	}
	s.delivery.record(now - due)
	if lr.spans != nil {
		lr.spanMu.Lock()
		lr.spans.add("deliver", msg.ID, due, now, -1, now-due)
		lr.spanMu.Unlock()
	}
}

// shutdown stops the members, then the consumers, and waits for both.
func (lr *liveRun) shutdown() {
	lr.shutOnce.Do(func() {
		lr.stop()
		close(lr.stopConsumers)
		lr.consumers.Wait()
	})
}

// audit judges every indication stream once the consumers have stopped.
// Ordering (Definition 3.1) is checked indication by indication and holds
// of any prefix; atomicity (Definition 3.2) compares what the survivors
// processed and needs a quiesced group, so a leg that was stopped the
// moment it lost a member (whole false) is judged on ordering alone.
func (lr *liveRun) audit(crashed, whole bool) []string {
	var out []string
	for g, streams := range lr.audits {
		for _, a := range streams {
			out = append(out, a.first...)
			if more := a.breaches - len(a.first); more > 0 {
				out = append(out, fmt.Sprintf("... and %d more ordering breaches on that stream", more))
			}
		}
		if !whole {
			continue
		}
		surv := lr.survivors(g, crashed)
		out = append(out, atomicViolations(streams, surv)...)
		if c := lr.checkers[g]; c != nil {
			for _, v := range c.Check(surv) {
				out = append(out, "checker: "+v.String())
			}
		}
	}
	return out
}

// survivors lists the members still in group g: not crashed, not left.
func (lr *liveRun) survivors(g int, crashed bool) []mid.ProcID {
	var out []mid.ProcID
	for i, m := range lr.members {
		if _, left := m.left(uint32(g)); left || (crashed && i == lr.w.victim()) {
			continue
		}
		out = append(out, mid.ProcID(i))
	}
	return out
}

// membersLeft lists the (member, group) pairs that halted themselves, with
// the reason. The crashed victim is killed, not left, and is not listed.
func (lr *liveRun) membersLeft() []string {
	var out []string
	for i, m := range lr.members {
		for g := 0; g < lr.w.groups; g++ {
			if reason, left := m.left(uint32(g)); left {
				out = append(out, fmt.Sprintf("member %d left group %d: %v", i, g, reason))
			}
		}
	}
	return out
}

// quiesce waits until every survivor of every group has been indicated the
// same number of messages and that number has stopped moving.
func (lr *liveRun) quiesce(crashed bool) {
	deadline := time.Now().Add(3 * time.Second)
	prev := int64(-1)
	for time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		level, total := true, int64(0)
		for g, streams := range lr.audits {
			first := int64(-1)
			for _, s := range lr.survivors(g, crashed) {
				n := streams[s].count.Load()
				total += n
				if first < 0 {
					first = n
				} else if n != first {
					level = false
				}
			}
		}
		if level && total == prev {
			return
		}
		prev = total
	}
}

// excluded counts the members every survivor's view of a group has dropped
// (the most over the groups), and describes the views for the report.
func (lr *liveRun) excluded(crashed bool) (int, []string, error) {
	most := 0
	var views []string
	for g := 0; g < lr.w.groups; g++ {
		dropped := make([]int, lr.w.n)
		surv := lr.survivors(g, crashed)
		for _, s := range surv {
			ctx, cancel := context.WithTimeout(context.Background(), sendTimeout)
			st, err := lr.members[s].status(ctx, uint32(g))
			cancel()
			if err != nil {
				return 0, nil, fmt.Errorf("status of member %d group %d: %w", s, g, err)
			}
			views = append(views, fmt.Sprintf("member %d group %d: alive=%v subrun=%d %+v", s, g, st.Alive, st.Subrun, st.Stats))
			for q, alive := range st.Alive {
				if !alive {
					dropped[q]++
				}
			}
		}
		n := 0
		for _, d := range dropped {
			if len(surv) > 0 && d == len(surv) {
				n++
			}
		}
		most = max(most, n)
	}
	return most, views, nil
}

// load drives one workload's sends and accounts for them.
type load struct {
	lr      *liveRun
	win     *window
	start   time.Time
	crashNs int64 // the victim's crash, ns since epoch; never without one

	completed    atomic.Int64 // sends confirmed so far, whenever due: read at slice edges
	failed       atomic.Int64 // sends due inside the window that failed
	crashAborted atomic.Int64 // victim's sends the injected crash cut off: not attempts
	lag          hist         // due time to Send call: how late the generator ran
	aborted      atomic.Bool  // the run is void; stop issuing
	inflight     sync.WaitGroup
}

// attempt issues one send due at the given instant and accounts for it.
// A send fails when it errors, when the member has left, or after
// sendTimeout; a failed send misses every latency limit. A send the
// injected crash catches at the victim is neither: it was not attempted.
func (ld *load) attempt(member int, group uint32, due int64) bool {
	victim := member == ld.lr.w.victim()
	if victim && nowNs() >= ld.crashNs {
		return true
	}
	m := ld.lr.members[member]
	call := nowNs()
	ctx, cancel := context.WithTimeout(context.Background(), sendTimeout)
	id, err := m.send(ctx, group, stampedPayload(due))
	cancel()
	done := nowNs()
	_, left := m.left(group)
	ok := err == nil && !left
	if ok {
		ld.completed.Add(1)
	}
	s := ld.win.sliceOf(due)
	if s == nil {
		return ok
	}
	switch {
	case ok:
		s.confirmed.Add(1)
		s.confirm.record(done - due)
	case victim && done >= ld.crashNs:
		ld.crashAborted.Add(1)
		return true
	default:
		ld.failed.Add(1)
	}
	ld.lag.record(call - due)
	if sp := ld.lr.spans; sp != nil {
		ld.lr.spanMu.Lock()
		root := sp.add("harness.send", id, due, done, -1, call-due)
		sp.add("rt.Send", id, call, done, root, done-call)
		ld.lr.spanMu.Unlock()
	}
	return ok
}

// retryPause is how long a session waits after a failed send: one
// RoundDuration, so a failing member cannot turn the loop into a spin.
func (w *workload) retryPause() time.Duration {
	return max(w.round, time.Millisecond)
}

// closedLoop runs the workload's sessions: each sends its next message only
// after the previous one confirmed. Session s drives member s mod n on
// group (s div n) mod G.
func (ld *load) closedLoop() {
	w := ld.lr.w
	for s := 0; s < w.sessions; s++ {
		member, group := s%w.n, uint32((s/w.n)%w.groups)
		ld.inflight.Add(1)
		go func() {
			defer ld.inflight.Done()
			for {
				due := nowNs()
				if due >= ld.win.w1 || ld.aborted.Load() {
					return
				}
				if !ld.attempt(member, group, due) {
					time.Sleep(w.retryPause())
				}
			}
		}()
	}
}

// arrivals returns one member's seeded arrival offsets, in order: the
// stretch starting at from is cut into strata of the given length and each
// stratum gets exactly rate·length arrivals at uniform random instants — a
// Poisson process conditioned on its count per stratum, so every seed
// offers the same load to every slice and differs only in the instants.
func arrivals(seed int64, member int, rate float64, from, stratum time.Duration, strata int) []time.Duration {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(member)*7919 + int64(from)))
	per := int(rate*stratum.Seconds() + 0.5)
	out := make([]time.Duration, 0, per*strata)
	for s := 0; s < strata; s++ {
		for k := 0; k < per; k++ {
			out = append(out, from+time.Duration(s)*stratum+time.Duration(rng.Int63n(int64(stratum))))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runSchedule fires each arrival at its due time, whatever earlier
// arrivals are still doing; fire is told the due time, not the time the
// generator got round to it, so a stall is charged to the sends it delayed.
func runSchedule(start time.Time, sched []time.Duration, stop *atomic.Bool, fire func(due time.Time)) {
	for _, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if stop.Load() {
			return
		}
		fire(due)
	}
}

// openLoop runs one seeded generator per member: the warm-up as one
// stratum, then one stratum per slice of the window.
func (ld *load) openLoop(o options) {
	w := ld.lr.w
	for i := 0; i < w.n; i++ {
		i := i
		sched := append(arrivals(o.seed, i, w.rate, 0, o.warmup, 1),
			arrivals(o.seed, i, w.rate, o.warmup, time.Duration(ld.win.sliceLen), len(ld.win.slices))...)
		ld.inflight.Add(1)
		go func() {
			defer ld.inflight.Done()
			runSchedule(ld.start, sched, &ld.aborted, func(due time.Time) {
				ld.inflight.Add(1)
				go func() {
					defer ld.inflight.Done()
					ld.attempt(i, 0, int64(due.Sub(epoch)))
				}()
			})
		}()
	}
}

// stallProbe watches the host's scheduling: it asks for a tick every
// period and remembers the longest gap between two. A gap of a whole
// RoundDuration is enough to make a free-running UDP member skip a round
// tick, after which its round numbering is off for good and the group
// excludes it (README.md, stability probes).
type stallProbe struct {
	maxGap time.Duration // the probe goroutine's until done closes
	stop   chan struct{}
	done   chan struct{}
}

func startStallProbe(period time.Duration) *stallProbe {
	p := &stallProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(period)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-p.stop:
				return
			case now := <-t.C:
				p.maxGap = max(p.maxGap, now.Sub(last))
				last = now
			}
		}
	}()
	return p
}

func (p *stallProbe) finish() time.Duration {
	close(p.stop)
	<-p.done
	return p.maxGap
}

func cpuTime() (time.Duration, int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss), nil
}

// resetPeakRSS makes ru_maxrss describe what follows: the set-ups and legs
// before this one leave garbage whose size follows the collector's timing,
// so the heap is collected and handed back to the system, and the kernel's
// high-water mark is reset to what is resident now (clear_refs 5, Linux
// 4.0 on). Where that is refused, ru_maxrss covers the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func sleepUntilNs(ns int64) {
	if d := time.Duration(ns - nowNs()); d > 0 {
		time.Sleep(d)
	}
}

// edge is what the sampler reads at one slice boundary. Rates are taken
// between two edges from the instants and counts actually read, so a late
// reading stretches its slice instead of skewing it.
type edge struct {
	at        int64 // ns since epoch
	cpu       time.Duration
	mallocs   uint64
	completed int64
}

// sliceRec is one clean slice: what moved between the readings at its two
// edges, and the sends that were due inside it.
type sliceRec struct {
	seconds   float64
	completed int64
	cpu       time.Duration
	mallocs   uint64
	s         *slice
}

const (
	// lossPoll is how often the sampler looks for a member that left.
	lossPoll = 100 * time.Millisecond
	// lossReach is how far back a detected loss spoils: a member that fell
	// out of step is excluded K subruns later and its pending sends fail
	// with it, so a slice that closed less than this before the detection is
	// void as well.
	lossReach = time.Second
	// maxSetups bounds the set-ups timed for setup_s.
	maxSetups = 200
	// bringUpTries bounds the consecutive set-ups that may fail (a member
	// can fall out of step before its first confirm).
	bringUpTries = 5
)

// leg is one cluster's stretch of the measured window. A leg ends when it
// has measured the slices asked of it, or when a member the harness did not
// crash leaves the group: the slices before the loss stay, the rest of the
// window is measured by the next leg on a fresh cluster.
type leg struct {
	lr  *liveRun
	ld  *load
	win *window

	clean    []sliceRec
	rssKiB   int64
	lost     []string // why the leg is void from some slice on; empty if it is whole
	stallMax time.Duration
	wall     time.Duration

	violations []string
	layers     *layerData // traced pass only
}

// bringUpRetry is bringUp, tried again when a set-up fails.
func bringUpRetry(w *workload, o options) (lr *liveRun, err error) {
	for try := 1; try <= bringUpTries; try++ {
		if lr, err = bringUp(w, o); err == nil {
			return lr, nil
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s set-up %d failed: %v; setting up again\n", w.name, try, err)
	}
	return nil, err
}

// timeSetups sets the workload up at least o.setups times, and again until
// o.setupFor has passed (at most maxSetups times), and returns the median
// time from construction to the first confirm at every member.
func timeSetups(w *workload, o options) (float64, error) {
	began := time.Now()
	var times []float64
	for len(times) < o.setups || (time.Since(began) < o.setupFor && len(times) < maxSetups) {
		lr, err := bringUpRetry(w, o)
		if err != nil {
			return 0, err
		}
		lr.shutdown()
		times = append(times, lr.setupS)
	}
	return median(times), nil
}

// waitEdge sleeps until the given instant, looking for lost members every
// lossPoll, and returns those it found: the wait ends early on a loss.
func (lr *liveRun) waitEdge(ns int64) []string {
	for {
		if lost := lr.membersLeft(); len(lost) > 0 {
			return lost
		}
		d := time.Duration(ns - nowNs())
		if d <= 0 {
			return nil
		}
		time.Sleep(min(d, lossPoll))
	}
}

// runLeg brings a fresh cluster up, warms it up, measures n slices unless a
// member is lost first, and audits every indication stream.
func runLeg(w *workload, o options, n int, sliceLen int64) (*leg, error) {
	began := time.Now()
	resetPeakRSS()
	lr, err := bringUpRetry(w, o)
	if err != nil {
		return nil, err
	}
	defer lr.shutdown()

	start := lr.born.Add(settle)
	win := newWindow(int64(start.Add(o.warmup).Sub(epoch)), n, sliceLen)
	lr.win.Store(win)
	ld := &load{lr: lr, win: win, start: start, crashNs: 1<<63 - 1}
	if w.crash {
		ld.crashNs = int64(lr.born.Add(crashAt(o)).Sub(epoch))
	}
	var tr *liveTrace
	if o.trace {
		tr = startLiveTrace(lr, ld, o)
	}
	time.Sleep(time.Until(start))
	probe := startStallProbe(max(w.round/2, 5*time.Millisecond))
	if w.sessions > 0 {
		ld.closedLoop()
	} else {
		ld.openLoop(o)
	}

	lg := &leg{lr: lr, ld: ld, win: win}
	var edges []edge
	for i := 0; i <= n && lg.lost == nil; i++ {
		if lg.lost = lr.waitEdge(win.w0 + int64(i)*sliceLen); lg.lost != nil {
			break
		}
		e := edge{at: nowNs(), completed: ld.completed.Load(), mallocs: mallocs()}
		if e.cpu, lg.rssKiB, err = cpuTime(); err != nil {
			return nil, err
		}
		edges = append(edges, e)
		tr.edge()
	}
	whole := max(len(edges)-1, 0) // slices with a reading at both edges
	if lg.lost != nil {
		// Stop the members at once: sends pending at a lost member would
		// otherwise run into their timeout.
		ld.aborted.Store(true)
		if whole > 0 && time.Duration(nowNs()-edges[whole].at) < lossReach {
			whole--
		}
		lg.stallMax = probe.finish()
		lr.shutdown()
		ld.inflight.Wait()
	} else {
		lg.stallMax = probe.finish()
		ld.inflight.Wait()
		lr.quiesce(w.crash)
		if excluded, views, err := lr.excluded(w.crash); err != nil {
			lg.lost = []string{err.Error()}
		} else if want := w.excludedWant(); excluded != want {
			lg.lost = []string{fmt.Sprintf("the survivors' views dropped %d members, not %d: %q", excluded, want, views)}
		} else if late := lr.membersLeft(); len(late) > 0 {
			lg.lost = late
		}
		if lg.lost != nil && whole > 0 {
			whole-- // whatever went wrong did so near the end
		}
	}
	if w.crash && lg.lost != nil {
		whole = 0 // the slices before and after the crash only count together
	}
	for i := 0; i < whole; i++ {
		lg.clean = append(lg.clean, sliceRec{
			seconds:   float64(edges[i+1].at-edges[i].at) / 1e9,
			completed: edges[i+1].completed - edges[i].completed,
			cpu:       edges[i+1].cpu - edges[i].cpu,
			mallocs:   edges[i+1].mallocs - edges[i].mallocs,
			s:         &win.slices[i],
		})
	}
	lg.layers = tr.finish(whole, lg.lost == nil)
	lr.shutdown()
	lg.violations = lr.audit(w.crash, lg.lost == nil)
	lg.wall = time.Since(began)
	return lg, nil
}

// excludedWant is how many members every survivor's view must have dropped
// when a leg ends: the crashed one, or none.
func (w *workload) excludedWant() int {
	if w.crash {
		return 1
	}
	return 0
}

// measured is everything one run observed over its legs, before it is
// shaped into the end-to-end or per-layer metric set.
type measured struct {
	w *workload

	setupS       float64
	clean        []sliceRec // the window: clean slices of every leg, in order
	asked        int        // slices the window was to have
	rssKiB       int64      // ru_maxrss of the legs that measured a slice, the largest
	confirmed    int64
	failed       int64 // failed sends of whole legs
	voidFailed   int64 // sends that failed with a lost member: part of the void stretch
	crashAborted int64
	lag          hist
	warnings     int64
	stallMax     time.Duration // longest scheduling gap a probe saw under load
	legs         int
	voidLegs     int // legs that lost a member
	membersLost  int // (member, group) pairs that left on their own, over all legs
	voidWall     time.Duration
	hostShare    [2]float64 // CPU share the host granted before and after the run
	quietWait    time.Duration

	violations []string
	lost       []string // what ended each void leg, its first loss
	layers     *layerData
	spans      *spanLog
}

const (
	// legDeadline is when, counted from the first leg's start and on top
	// of the window itself, no further leg is started.
	legDeadline = 70 * time.Second
)

// runWorkload times the set-ups, then measures the window leg by leg until
// it has every slice or the time for legs is up. A window at least half
// measured by then is reported as it is; less is an error.
func runWorkload(w workload, o options) (*measured, error) {
	m := &measured{w: &w}
	var err error
	if m.setupS, err = timeSetups(&w, o); err != nil {
		return nil, err
	}
	n, sliceLen := slicing(o.seconds)
	m.asked = n
	if o.trace {
		m.layers, m.spans = newLayerData(), newSpanLog(maxLiveSpans)
	}
	deadline := time.Now().Add(time.Duration(o.seconds*float64(time.Second)) + legDeadline)
	for len(m.clean) < n && time.Now().Before(deadline) {
		want := n - len(m.clean)
		if w.crash {
			want = n
		}
		lg, err := runLeg(&w, o, want, sliceLen)
		if err != nil {
			return nil, err
		}
		m.legs++
		m.clean = append(m.clean, lg.clean...)
		if len(lg.clean) > 0 {
			m.rssKiB = max(m.rssKiB, lg.rssKiB)
		}
		m.violations = append(m.violations, lg.violations...)
		m.stallMax = max(m.stallMax, lg.stallMax)
		m.warnings += lg.lr.warnings.Load()
		m.lag.add(&lg.ld.lag)
		m.crashAborted += lg.ld.crashAborted.Load()
		if lg.lost == nil {
			m.failed += lg.ld.failed.Load()
		} else {
			m.voidLegs++
			m.voidWall += lg.wall
			m.voidFailed += lg.ld.failed.Load()
			m.membersLost += len(lg.lost)
			m.lost = append(m.lost, fmt.Sprintf("leg %d: %s", m.legs, lg.lost[0]))
			fmt.Fprintf(os.Stderr, "benchmark: %s leg %d void after %d clean slices (longest host stall %v, RoundDuration %v): %v; measuring the rest on a fresh cluster\n",
				w.name, m.legs, len(lg.clean), lg.stallMax.Round(time.Millisecond), w.round, lg.lost[0])
		}
		if o.trace {
			m.layers.merge(lg.layers)
			m.spans.merge(lg.lr.spans)
		}
	}
	for _, c := range m.clean {
		m.confirmed += c.s.confirmed.Load()
	}
	if len(m.clean) < (n+1)/2 || m.confirmed == 0 {
		return nil, fmt.Errorf("%s: %d of %d slices measured and %d sends confirmed in %d legs, %d of them void; the last: %v",
			w.name, len(m.clean), n, m.confirmed, m.legs, m.voidLegs, m.lost[max(len(m.lost)-3, 0):])
	}
	if m.layers != nil {
		m.layers.sortSamples()
	}
	return m, nil
}

// correct reports whether the run's outputs were right: both uniform
// invariants hold on every indication stream of every leg, void ones too.
// A member lost with no fault injected voids its leg (README.md) and shows
// as legs_void; a window that could not be measured at all is an error.
func (m *measured) correct() bool { return len(m.violations) == 0 }

// seconds is the measured length of the window: its clean slices.
func (m *measured) seconds() float64 {
	var s float64
	for _, c := range m.clean {
		s += c.seconds
	}
	return s
}

// sliceSeries returns f for every clean slice of the window.
func (m *measured) sliceSeries(f func(c *sliceRec) float64) []float64 {
	vs := make([]float64, len(m.clean))
	for i := range vs {
		vs[i] = f(&m.clean[i])
	}
	return vs
}

// median is what a run reports of a per-slice series.
func median(vs []float64) float64 {
	_, med, _ := quartiles(vs)
	return med
}

// whole merges one histogram of every slice, for the whole-window
// diagnostics.
func (m *measured) whole(pick func(*slice) *hist) *hist {
	var all hist
	for _, c := range m.clean {
		all.add(pick(c.s))
	}
	return &all
}

// endToEnd shapes the untraced metrics; diag carries what is reported but
// not gated (see README.md), series the per-slice values behind the
// medians.
func (m *measured) endToEnd() (metrics, diag map[string]metric, series map[string][]float64) {
	w := m.w
	quantile := func(pick func(*slice) *hist, q float64) []float64 {
		return m.sliceSeries(func(c *sliceRec) float64 { return pick(c.s).quantile(q) / 1e6 })
	}
	confirm := func(s *slice) *hist { return &s.confirm }
	delivery := func(s *slice) *hist { return &s.delivery }
	series = map[string][]float64{
		"confirmed_msgs_s": m.sliceSeries(func(c *sliceRec) float64 { return float64(c.completed) / c.seconds }),
		"cpu_ms_per_kmsg": m.sliceSeries(func(c *sliceRec) float64 {
			return ratio(float64(c.cpu)/float64(time.Millisecond), float64(c.completed)/1000)
		}),
		"allocs_per_msg": m.sliceSeries(func(c *sliceRec) float64 {
			return ratio(float64(c.mallocs), float64(c.completed))
		}),
		"confirm_p50_ms":  quantile(confirm, 0.50),
		"delivery_p50_ms": quantile(delivery, 0.50),
		"delivery_p95_ms": quantile(delivery, 0.95),
	}
	rate := median(series["confirmed_msgs_s"])
	metrics = map[string]metric{
		"setup_s":          {m.setupS, "s"},
		"confirmed_msgs_s": {rate, "msgs/s"},
		"confirm_p50_ms":   {median(series["confirm_p50_ms"]), "ms"},
		"delivery_p50_ms":  {median(series["delivery_p50_ms"]), "ms"},
		"allocs_per_msg":   {median(series["allocs_per_msg"]), "count"},
		"peak_rss_mb":      {float64(m.rssKiB) / 1024, "MiB"},
	}
	allDelivery, allConfirm := m.whole(delivery), m.whole(confirm)
	diag = map[string]metric{
		// Measured like the gated metrics but not steady enough on a shared
		// host to be gated (README.md); the traced pass prints its own
		// readings of them as run.* per-layer metrics.
		"delivery_p95_ms": {median(series["delivery_p95_ms"]), "ms"},
		"cpu_ms_per_kmsg": {median(series["cpu_ms_per_kmsg"]), "ms"},

		"failed_share":           {ratio(float64(m.failed), float64(m.confirmed+m.failed)), "ratio"},
		"invariant_violations":   {float64(len(m.violations)), "count"},
		"legs":                   {float64(m.legs), "count"},
		"legs_void":              {float64(m.voidLegs), "count"},
		"void_wall_s":            {m.voidWall.Seconds(), "s"},
		"void_failed_sends":      {float64(m.voidFailed), "count"},
		"slices_measured":        {float64(len(m.clean)), "count"},
		"slices_asked":           {float64(m.asked), "count"},
		"crash_aborted_sends":    {float64(m.crashAborted), "count"},
		"delivery_p50_rtd":       {metrics["delivery_p50_ms"].Value / (2 * w.round.Seconds() * 1e3), "rtd"},
		"delivery_p99_ms":        {allDelivery.quantile(0.99) / 1e6, "ms"},
		"delivery_pairs":         {float64(allDelivery.count()), "count"},
		"whole_confirm_p50_ms":   {allConfirm.quantile(0.50) / 1e6, "ms"},
		"whole_delivery_p95_ms":  {allDelivery.quantile(0.95) / 1e6, "ms"},
		"whole_confirmed_msgs_s": {ratio(float64(m.confirmed), m.seconds()), "msgs/s"},
		"sched_lag_p95_ms":       {m.lag.quantile(0.95) / 1e6, "ms"},
		"stall_max_ms":           {float64(m.stallMax) / 1e6, "ms"},
		"host_cpu_share_before":  {m.hostShare[0], "ratio"},
		"host_cpu_share_after":   {m.hostShare[1], "ratio"},
		"quiet_wait_s":           {m.quietWait.Seconds(), "s"},
		"ceiling_msgs_s":         {w.ceiling(), "msgs/s"},
		"ceiling_utilisation":    {rate / w.ceiling(), "ratio"},
		"runtime_warnings":       {float64(m.warnings), "count"},
	}
	return metrics, diag, series
}
