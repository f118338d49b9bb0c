package simnet

import (
	"fmt"
	"math"
	"sort"

	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

// Delay measures end-to-end delay: the elapsed time from the instant a user
// message is generated to the instant it is processed, sampled once per
// (message, processing process) pair, exactly as the paper defines D.
type Delay struct {
	gen     map[mid.MID]sim.Time
	sum     sim.Time
	count   int
	max     sim.Time
	samples []sim.Time
}

// NewDelay returns an empty delay collector.
func NewDelay() *Delay {
	return &Delay{gen: make(map[mid.MID]sim.Time)}
}

// Generated records the generation instant of a message.
func (d *Delay) Generated(id mid.MID, t sim.Time) {
	if _, dup := d.gen[id]; !dup {
		d.gen[id] = t
	}
}

// Processed records that some process processed the message at time t.
// Unknown messages (never recorded as generated) are ignored.
func (d *Delay) Processed(id mid.MID, t sim.Time) {
	g, ok := d.gen[id]
	if !ok {
		return
	}
	delta := t - g
	d.sum += delta
	d.count++
	if delta > d.max {
		d.max = delta
	}
	d.samples = append(d.samples, delta)
}

// Count returns the number of (message, process) samples.
func (d *Delay) Count() int { return d.count }

// MeanRTD returns the mean end-to-end delay in rtd units, or NaN if empty.
func (d *Delay) MeanRTD() float64 {
	if d.count == 0 {
		return math.NaN()
	}
	return float64(d.sum) / float64(d.count) / float64(sim.TicksPerRTD)
}

// MaxRTD returns the largest observed delay in rtd units.
func (d *Delay) MaxRTD() float64 { return d.max.RTD() }

// PercentileRTD returns the p-th percentile delay (0 < p <= 100) in rtd.
func (d *Delay) PercentileRTD(p float64) float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	s := append([]sim.Time(nil), d.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx].RTD()
}

// Load accounts network traffic per PDU kind: how many messages and how
// many bytes. Data messages are the user traffic; every other kind is
// control traffic (Table 1).
type Load struct {
	Counts map[wire.Kind]int
	Bytes  map[wire.Kind]int
}

// NewLoad returns an empty load accountant.
func NewLoad() *Load {
	return &Load{Counts: make(map[wire.Kind]int), Bytes: make(map[wire.Kind]int)}
}

// Add accounts one sent message of the given kind and encoded size.
func (l *Load) Add(kind wire.Kind, size int) {
	l.Counts[kind]++
	l.Bytes[kind] += size
}

// ControlMsgs returns the number of non-DATA messages.
func (l *Load) ControlMsgs() int {
	total := 0
	for k, c := range l.Counts {
		if !k.IsData() {
			total += c
		}
	}
	return total
}

// ControlBytes returns the bytes of non-DATA traffic.
func (l *Load) ControlBytes() int {
	total := 0
	for k, b := range l.Bytes {
		if !k.IsData() {
			total += b
		}
	}
	return total
}

// TotalMsgs returns the number of messages of every kind.
func (l *Load) TotalMsgs() int {
	total := 0
	for _, c := range l.Counts {
		total += c
	}
	return total
}

// MeanSize returns the mean encoded size of messages of kind k, or 0.
func (l *Load) MeanSize(k wire.Kind) float64 {
	if l.Counts[k] == 0 {
		return 0
	}
	return float64(l.Bytes[k]) / float64(l.Counts[k])
}

// String summarizes the load for reports.
func (l *Load) String() string {
	s := ""
	for _, k := range []wire.Kind{wire.KindData, wire.KindRequest, wire.KindDecision, wire.KindRecover, wire.KindRetransmit} {
		if l.Counts[k] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:%d/%dB", k, l.Counts[k], l.Bytes[k])
	}
	if s == "" {
		return "(no traffic)"
	}
	return s
}

// Series is a time series of (time in rtd, value) points, e.g. the history
// length sampled every round for Figure 6.
type Series struct {
	T []float64
	V []float64
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.T = append(s.T, t.RTD())
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Max returns the largest value in the series, or NaN if empty.
func (s *Series) Max() float64 {
	if len(s.V) == 0 {
		return math.NaN()
	}
	m := s.V[0]
	for _, v := range s.V[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// At returns the value at the latest sample time <= t (in rtd), or NaN if
// the series has no sample that early.
func (s *Series) At(rtd float64) float64 {
	best := math.NaN()
	for i, tt := range s.T {
		if tt <= rtd {
			best = s.V[i]
		} else {
			break
		}
	}
	return best
}
