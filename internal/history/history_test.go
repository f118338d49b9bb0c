package history

import (
	"errors"
	"math/rand"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

func msg(p mid.ProcID, s mid.Seq) *causal.Message {
	return &causal.Message{ID: mid.MID{Proc: p, Seq: s}}
}

// get ignores the gap error where a test only cares about presence.
func get(h *History, p mid.ProcID, s mid.Seq) *causal.Message {
	m, _ := h.Get(p, s)
	return m
}

// rng ignores the gap error where a test only cares about the clip.
func rng(h *History, p mid.ProcID, from, to mid.Seq) []*causal.Message {
	ms, _ := h.Range(p, from, to)
	return ms
}

func TestStoreAndGet(t *testing.T) {
	h := New(3)
	if err := h.Store(msg(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := h.Store(msg(1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := get(h, 1, 2); got == nil || got.ID.Seq != 2 {
		t.Errorf("Get(1,2) = %v", got)
	}
	if get(h, 1, 3) != nil {
		t.Error("Get of unstored message should be nil")
	}
	if get(h, 0, 1) != nil {
		t.Error("Get from empty entry should be nil")
	}
	if get(h, 9, 1) != nil || get(h, -1, 1) != nil {
		t.Error("Get out of range should be nil")
	}
	if h.Len() != 2 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestStoreOutOfOrderFails(t *testing.T) {
	h := New(2)
	if err := h.Store(msg(0, 2)); err == nil {
		t.Error("first store must be seq 1")
	}
	if err := h.Store(msg(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := h.Store(msg(0, 1)); err == nil {
		t.Error("duplicate store must fail")
	}
	if err := h.Store(msg(0, 3)); err == nil {
		t.Error("gap store must fail")
	}
	if err := h.Store(msg(5, 1)); err == nil {
		t.Error("store from unknown process must fail")
	}
}

func TestCleanTo(t *testing.T) {
	h := New(2)
	for s := mid.Seq(1); s <= 5; s++ {
		if err := h.Store(msg(0, s)); err != nil {
			t.Fatal(err)
		}
	}
	released := h.CleanTo(mid.SeqVector{3, 0})
	if released != 3 {
		t.Errorf("released = %d, want 3", released)
	}
	if h.Len() != 2 {
		t.Errorf("Len = %d, want 2", h.Len())
	}
	if m, err := h.Get(0, 3); m != nil || !errors.Is(err, ErrCompacted) {
		t.Errorf("purged Get = %v, %v; want nil, ErrCompacted", m, err)
	}
	if get(h, 0, 4) == nil {
		t.Error("retained message should remain")
	}
	if h.Base(0) != 3 || h.MaxSeq(0) != 5 {
		t.Errorf("Base=%d MaxSeq=%d", h.Base(0), h.MaxSeq(0))
	}
	// Cleaning backwards is a no-op.
	if rel := h.CleanTo(mid.SeqVector{2, 0}); rel != 0 {
		t.Errorf("backward clean released %d", rel)
	}
	// Cleaning beyond stored clips.
	if rel := h.CleanTo(mid.SeqVector{99, 0}); rel != 2 {
		t.Errorf("over-clean released %d, want 2", rel)
	}
	if h.Len() != 0 {
		t.Errorf("Len = %d, want 0", h.Len())
	}
	// Storage continues after a full purge.
	if err := h.Store(msg(0, 6)); err != nil {
		t.Fatal(err)
	}
	if h.MaxSeq(0) != 6 {
		t.Errorf("MaxSeq = %d", h.MaxSeq(0))
	}
}

func TestCleanToShortVector(t *testing.T) {
	h := New(3)
	if err := h.Store(msg(2, 1)); err != nil {
		t.Fatal(err)
	}
	// Vector shorter than group: untouched entries stay.
	if rel := h.CleanTo(mid.SeqVector{0}); rel != 0 {
		t.Errorf("released %d", rel)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestRange(t *testing.T) {
	h := New(1)
	for s := mid.Seq(1); s <= 6; s++ {
		if err := h.Store(msg(0, s)); err != nil {
			t.Fatal(err)
		}
	}
	h.CleanTo(mid.SeqVector{2})
	got, err := h.Range(0, 1, 4) // clipped to [3,4], with a gap error up front
	if len(got) != 2 || got[0].ID.Seq != 3 || got[1].ID.Seq != 4 {
		t.Errorf("Range = %v", got)
	}
	var gap *CompactedError
	if !errors.As(err, &gap) || gap.Base != 2 || gap.Proc != 0 {
		t.Errorf("clipped Range err = %v, want CompactedError{0, 2}", err)
	}
	if ms, err := h.Range(0, 7, 9); ms != nil || err != nil {
		t.Errorf("Range beyond stored = %v, %v", ms, err)
	}
	if rng(h, 0, 4, 3) != nil {
		t.Error("inverted Range should be nil")
	}
	if rng(h, 5, 1, 2) != nil {
		t.Error("Range of unknown proc should be nil")
	}
	full, err := h.Range(0, 3, 6)
	if len(full) != 4 || err != nil {
		t.Errorf("full Range len = %d err = %v", len(full), err)
	}
}

// A request entirely inside the compacted prefix answers no data and the
// typed gap error naming the base — the satellite-2 contract: recovery must
// learn "that range is stable everywhere" rather than mistaking silence for
// a hole it keeps retrying.
func TestRangeFullyCompacted(t *testing.T) {
	h := New(1)
	for s := mid.Seq(1); s <= 6; s++ {
		if err := h.Store(msg(0, s)); err != nil {
			t.Fatal(err)
		}
	}
	h.CleanTo(mid.SeqVector{4})
	ms, err := h.Range(0, 1, 3)
	if len(ms) != 0 {
		t.Errorf("fully compacted Range returned %d messages", len(ms))
	}
	var gap *CompactedError
	if !errors.As(err, &gap) || gap.Base != 4 {
		t.Fatalf("err = %v, want CompactedError base 4", err)
	}
}

func TestSkip(t *testing.T) {
	h := New(2)
	for s := mid.Seq(1); s <= 5; s++ {
		if err := h.Store(msg(0, s)); err != nil {
			t.Fatal(err)
		}
	}
	// Partial skip releases the prefix like a clean.
	if rel := h.Skip(0, 2); rel != 2 {
		t.Errorf("Skip(0,2) released %d", rel)
	}
	if h.Base(0) != 2 || h.MaxSeq(0) != 5 || h.Len() != 3 {
		t.Errorf("after partial skip: base=%d max=%d len=%d", h.Base(0), h.MaxSeq(0), h.Len())
	}
	// Backward skip is a no-op.
	if rel := h.Skip(0, 1); rel != 0 {
		t.Errorf("backward Skip released %d", rel)
	}
	// Skip past the stored frontier: the base jumps beyond MaxSeq (the
	// skipped messages were never received here) and storing resumes there.
	if rel := h.Skip(0, 9); rel != 3 {
		t.Errorf("Skip(0,9) released %d", rel)
	}
	if h.Base(0) != 9 || h.MaxSeq(0) != 9 || h.Len() != 0 {
		t.Errorf("after jump skip: base=%d max=%d len=%d", h.Base(0), h.MaxSeq(0), h.Len())
	}
	if err := h.Store(msg(0, 10)); err != nil {
		t.Fatalf("store after jump: %v", err)
	}
	// Skip on an empty entry positions its base.
	if h.Skip(1, 7); h.Base(1) != 7 {
		t.Errorf("empty-entry skip base = %d", h.Base(1))
	}
	if h.Skip(5, 1) != 0 || h.Skip(-1, 1) != 0 {
		t.Error("out-of-range Skip should be a no-op")
	}
}

func TestInstallBases(t *testing.T) {
	h := New(3)
	if err := h.InstallBases(mid.SeqVector{4, 0, 7}); err != nil {
		t.Fatal(err)
	}
	if h.Base(0) != 4 || h.Base(1) != 0 || h.Base(2) != 7 {
		t.Errorf("bases = %d,%d,%d", h.Base(0), h.Base(1), h.Base(2))
	}
	// Storing resumes at watermark+1, and the prefix answers compacted.
	if err := h.Store(msg(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := h.Store(msg(0, 4)); err == nil {
		t.Error("store below installed base must fail")
	}
	if _, err := h.Get(0, 3); !errors.Is(err, ErrCompacted) {
		t.Errorf("Get below installed base = %v, want ErrCompacted", err)
	}
	// Installing over retained messages is rejected.
	if err := h.InstallBases(mid.SeqVector{9, 9, 9}); err == nil {
		t.Error("InstallBases over retained messages must fail")
	}
}

func TestStoredVector(t *testing.T) {
	h := New(3)
	for s := mid.Seq(1); s <= 3; s++ {
		if err := h.Store(msg(1, s)); err != nil {
			t.Fatal(err)
		}
	}
	h.CleanTo(mid.SeqVector{0, 2, 0})
	v := h.Stored()
	if !v.Equal(mid.SeqVector{0, 3, 0}) {
		t.Errorf("Stored = %v", v)
	}
	if h.PerSender()[1] != 1 {
		t.Errorf("PerSender = %v", h.PerSender())
	}
}

// Property: after any interleaving of stores and cleans, the retained range
// per sender is exactly (base, maxseq], Len matches the sum of retained
// counts, and Get answers exactly inside that range.
func TestHistoryInvariantsUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		h := New(n)
		next := make([]mid.Seq, n)
		for op := 0; op < 200; op++ {
			if rng.Intn(3) != 0 { // store
				q := rng.Intn(n)
				next[q]++
				if err := h.Store(msg(mid.ProcID(q), next[q])); err != nil {
					t.Fatal(err)
				}
			} else { // clean to a random stable vector
				stable := mid.NewSeqVector(n)
				for q := 0; q < n; q++ {
					if next[q] > 0 {
						stable[q] = mid.Seq(rng.Intn(int(next[q]) + 1))
					}
				}
				h.CleanTo(stable)
			}
			sum := 0
			for q := 0; q < n; q++ {
				p := mid.ProcID(q)
				base, maxs := h.Base(p), h.MaxSeq(p)
				if maxs != next[q] {
					t.Fatalf("MaxSeq(%d) = %d, want %d", q, maxs, next[q])
				}
				if base > maxs {
					t.Fatalf("base %d > maxseq %d", base, maxs)
				}
				sum += int(maxs - base)
				if base >= 1 {
					m, err := h.Get(p, base)
					if m != nil || !errors.Is(err, ErrCompacted) {
						t.Fatalf("purged message (%d,%d): %v, %v", q, base, m, err)
					}
				}
				if maxs > base && get(h, p, maxs) == nil {
					t.Fatalf("retained message (%d,%d) missing", q, maxs)
				}
			}
			if h.Len() != sum {
				t.Fatalf("Len = %d, want %d", h.Len(), sum)
			}
		}
	}
}

// TestCleanToAmortization pokes the representation directly: partial cleans
// must nil dropped slots immediately (no pinning) while deferring compaction,
// and compaction must fire once the dead prefix reaches half the backing
// array.
func TestCleanToAmortization(t *testing.T) {
	h := New(1)
	for s := mid.Seq(1); s <= 10; s++ {
		if err := h.Store(msg(0, s)); err != nil {
			t.Fatal(err)
		}
	}
	e := &h.entries[0]
	if h.CleanTo(mid.SeqVector{3}) != 3 {
		t.Fatal("clean to 3")
	}
	// 3 dead of 10 slots: below the half threshold, so no compaction yet.
	if e.start != 3 || len(e.msgs) != 10 {
		t.Fatalf("start=%d len=%d, want deferred compaction (3, 10)", e.start, len(e.msgs))
	}
	for i := 0; i < e.start; i++ {
		if e.msgs[i] != nil {
			t.Fatalf("dead slot %d still pins a message", i)
		}
	}
	if get(h, 0, 3) != nil || get(h, 0, 4) == nil {
		t.Fatal("Get wrong across dead prefix")
	}
	// 6 dead of 10 slots: threshold crossed, the live part moves to the front
	// of the SAME array, and the vacated tail pins nothing.
	array := cap(e.msgs)
	if h.CleanTo(mid.SeqVector{6}) != 3 {
		t.Fatal("clean to 6")
	}
	if e.start != 0 || len(e.msgs) != 4 || cap(e.msgs) != array {
		t.Fatalf("start=%d len=%d cap=%d, want compacted in place (0, 4, %d)", e.start, len(e.msgs), cap(e.msgs), array)
	}
	for i, m := range e.msgs[:cap(e.msgs)][4:] {
		if m != nil {
			t.Fatalf("vacated slot %d still pins a message", 4+i)
		}
	}
	if got := rng(h, 0, 7, 10); len(got) != 4 || got[0].ID.Seq != 7 {
		t.Fatalf("Range after compaction = %v", got)
	}
	// A full purge keeps the array too: the next Store must not allocate.
	h.CleanTo(mid.SeqVector{10})
	if len(e.msgs) != 0 || cap(e.msgs) != array || e.start != 0 || e.base != 10 {
		t.Fatalf("full purge left len=%d cap=%d start=%d base=%d", len(e.msgs), cap(e.msgs), e.start, e.base)
	}
	// Store keeps working against the purged base.
	if err := h.Store(msg(0, 11)); err != nil {
		t.Fatal(err)
	}
	if get(h, 0, 11) == nil || h.MaxSeq(0) != 11 {
		t.Fatal("store after full purge broken")
	}
}

// TestCapacityKeptAcrossCleanStoreCycles is the steady state of every
// sequence: a few messages stored, then declared stable, over and over. Once
// the array has its size the cycle allocates nothing — the parent of this
// test's change dropped the array at every full purge and built a fresh tail
// at every other compaction.
func TestCapacityKeptAcrossCleanStoreCycles(t *testing.T) {
	h := New(2)
	msgs := make([]*causal.Message, 0, 4096)
	for s := mid.Seq(1); s <= 2048; s++ {
		msgs = append(msgs, msg(0, s), msg(1, s))
	}
	next, stable := 0, mid.NewSeqVector(2)
	cycle := func() {
		for k := 0; k < 6; k++ { // three messages per sequence ...
			m := msgs[next]
			next++
			if err := h.Store(m); err != nil {
				t.Fatal(err)
			}
			stable[m.ID.Proc] = m.ID.Seq
		}
		stable[1]-- // ... sequence 1 trailing by one, so it is never empty
		h.CleanTo(stable)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("a store/clean cycle allocates %.1f objects, want 0", got)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want the one trailing message", h.Len())
	}
}

// TestSwingingSuffixKeepsItsArray: a sender whose retained suffix swings
// between a few messages and most of the array every cycle — a busy sender
// whose stability catches up in steps — must not trade arrays. Halving the
// array at each compaction that finds it three quarters idle, for the next
// swing to regrow it, costs two allocations a cycle.
func TestSwingingSuffixKeepsItsArray(t *testing.T) {
	const few, swing, cycles = 4, 196, 110
	h := New(1)
	msgs := make([]*causal.Message, 0, few+swing*cycles)
	for s := mid.Seq(1); len(msgs) < cap(msgs); s++ {
		msgs = append(msgs, msg(0, s))
	}
	next := 0
	store := func(k int) {
		for ; k > 0; k-- {
			if err := h.Store(msgs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	store(few)
	cycle := func() {
		store(swing) // few + swing retained: most of the array
		h.CleanTo(mid.SeqVector{mid.Seq(next - few)})
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("a cycle swinging the retained suffix between %d and %d allocates %.1f objects, want 0", few, few+swing, got)
	}
	if h.Len() != few {
		t.Errorf("Len = %d, want %d", h.Len(), few)
	}
}

// TestBurstCapacityIsGivenBack: keeping the array must not mean keeping a
// burst's peak for good. After 10 000 messages are stored and purged, the
// steady trickle that follows walks the array back down to keepCap.
func TestBurstCapacityIsGivenBack(t *testing.T) {
	h := New(1)
	e := &h.entries[0]
	next := mid.Seq(1)
	for ; next <= 10000; next++ {
		if err := h.Store(msg(0, next)); err != nil {
			t.Fatal(err)
		}
	}
	peak := cap(e.msgs)
	if peak < 10000 {
		t.Fatalf("cap %d after a 10000-message burst", peak)
	}
	h.CleanTo(mid.SeqVector{next - 1})
	if c := cap(e.msgs); c >= peak {
		t.Errorf("cap %d after the burst was purged, want under the peak %d", c, peak)
	}
	for i := 0; i < 64; i++ {
		for k := 0; k < 3; k++ {
			if err := h.Store(msg(0, next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		h.CleanTo(mid.SeqVector{next - 1})
	}
	if c := cap(e.msgs); c > keepCap {
		t.Errorf("cap %d after 64 quiet cycles, want it back at %d", c, keepCap)
	}
	if h.Len() != 0 || h.MaxSeq(0) != next-1 {
		t.Errorf("Len=%d MaxSeq=%d, want 0 and %d", h.Len(), h.MaxSeq(0), next-1)
	}
}

// BenchmarkHistoryStoreAndClean measures the store-then-purge cycle for 40
// senders.
func BenchmarkHistoryStoreAndClean(b *testing.B) {
	b.ReportAllocs()
	stable := mid.NewSeqVector(40)
	for i := range stable {
		stable[i] = 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := New(40)
		for q := 0; q < 40; q++ {
			for s := mid.Seq(1); s <= 10; s++ {
				if err := h.Store(&causal.Message{ID: mid.MID{Proc: mid.ProcID(q), Seq: s}}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if h.CleanTo(stable) != 400 {
			b.Fatal("clean mismatch")
		}
	}
}
