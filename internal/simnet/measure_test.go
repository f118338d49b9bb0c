package simnet

import (
	"math"
	"testing"

	"urcgc/internal/mid"
	"urcgc/internal/sim"
	"urcgc/internal/wire"
)

func TestDelayMean(t *testing.T) {
	d := NewDelay()
	id1 := mid.MID{Proc: 0, Seq: 1}
	id2 := mid.MID{Proc: 1, Seq: 1}
	d.Generated(id1, 0)
	d.Generated(id2, sim.TicksPerRTD)
	d.Processed(id1, sim.TicksPerRTD)   // 1 rtd
	d.Processed(id1, 2*sim.TicksPerRTD) // 2 rtd (second process)
	d.Processed(id2, 2*sim.TicksPerRTD) // 1 rtd
	if d.Count() != 3 {
		t.Errorf("Count = %d", d.Count())
	}
	want := (1.0 + 2.0 + 1.0) / 3.0
	if got := d.MeanRTD(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanRTD = %v, want %v", got, want)
	}
	if d.MaxRTD() != 2.0 {
		t.Errorf("MaxRTD = %v", d.MaxRTD())
	}
}

func TestDelayIgnoresUnknownAndDuplicateGen(t *testing.T) {
	d := NewDelay()
	d.Processed(mid.MID{Proc: 9, Seq: 9}, 100)
	if d.Count() != 0 {
		t.Error("unknown message must be ignored")
	}
	id := mid.MID{Proc: 0, Seq: 1}
	d.Generated(id, 10)
	d.Generated(id, 999) // duplicate keeps first
	d.Processed(id, 10+sim.TicksPerRTD)
	if got := d.MeanRTD(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("MeanRTD = %v", got)
	}
}

func TestDelayEmptyMeanIsNaN(t *testing.T) {
	if !math.IsNaN(NewDelay().MeanRTD()) {
		t.Error("empty mean should be NaN")
	}
	if !math.IsNaN(NewDelay().PercentileRTD(50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestDelayPercentile(t *testing.T) {
	d := NewDelay()
	for i := 1; i <= 10; i++ {
		id := mid.MID{Proc: 0, Seq: mid.Seq(i)}
		d.Generated(id, 0)
		d.Processed(id, sim.Time(i)*sim.TicksPerRTD)
	}
	if got := d.PercentileRTD(50); got != 5.0 {
		t.Errorf("p50 = %v", got)
	}
	if got := d.PercentileRTD(100); got != 10.0 {
		t.Errorf("p100 = %v", got)
	}
	if got := d.PercentileRTD(1); got != 1.0 {
		t.Errorf("p1 = %v", got)
	}
}

func TestLoadAccounting(t *testing.T) {
	l := NewLoad()
	l.Add(wire.KindData, 100)
	l.Add(wire.KindRequest, 40)
	l.Add(wire.KindRequest, 40)
	l.Add(wire.KindDecision, 60)
	if l.TotalMsgs() != 4 {
		t.Errorf("TotalMsgs = %d", l.TotalMsgs())
	}
	if l.ControlMsgs() != 3 {
		t.Errorf("ControlMsgs = %d", l.ControlMsgs())
	}
	if l.ControlBytes() != 140 {
		t.Errorf("ControlBytes = %d", l.ControlBytes())
	}
	if got := l.MeanSize(wire.KindRequest); got != 40 {
		t.Errorf("MeanSize = %v", got)
	}
	if got := l.MeanSize(wire.KindRecover); got != 0 {
		t.Errorf("MeanSize of absent kind = %v", got)
	}
	if NewLoad().String() != "(no traffic)" {
		t.Error("empty String")
	}
	if l.String() == "" {
		t.Error("non-empty String")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(0, 1)
	s.Add(sim.TicksPerRTD, 5)
	s.Add(2*sim.TicksPerRTD, 3)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Max() != 5 {
		t.Errorf("Max = %v", s.Max())
	}
	if got := s.At(1.5); got != 5 {
		t.Errorf("At(1.5) = %v", got)
	}
	if got := s.At(2.0); got != 3 {
		t.Errorf("At(2.0) = %v", got)
	}
	if !math.IsNaN(s.At(-1)) {
		t.Error("At before first sample should be NaN")
	}
	var empty Series
	if !math.IsNaN(empty.Max()) {
		t.Error("empty Max should be NaN")
	}
}
