package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/history"
	"urcgc/internal/mid"
	"urcgc/internal/waitlist"
	"urcgc/internal/wire"
)

// The layer drill hosts n core.Process values over the harness's own
// core.Transport and steps them through lockstep rounds on one goroutine,
// from the seed alone: no sockets, no timers, no scheduler. Every PDU goes
// through wire.MarshalAppend and wire.Unmarshal, and every call into core
// and wire sits in a span, so the drill prices the layers the live pass can
// only time end to end. It is shaped like its workload: n, payload size,
// messages per member per subrun, dependency labelling and drop rate.

const (
	// maxDrillSpans bounds the spans the drill retains verbatim; the
	// per-name aggregates cover all of them.
	maxDrillSpans = 20000
	// drillKeepFrames is how many encoded frames are kept for the codec
	// replay that counts wire allocations.
	drillKeepFrames = 4096
	// replayBlock is the history clean interval and the waiting-list
	// burst size of the message-stream replays.
	replayBlock = 32
)

// drillCounts are the drill's exact counts: they must repeat for a seed.
type drillCounts struct {
	Subruns    int `json:"subruns"`
	Submitted  int `json:"submitted"`
	Processed  int `json:"processed"` // OnProcess calls summed over members
	PDUs       int `json:"pdus"`      // frames marshalled (a broadcast is one)
	Deliveries int `json:"deliveries"`
	Dropped    int `json:"dropped"`
	DataPDUs   int `json:"data_pdus"`
	DataBytes  int `json:"data_bytes"`
	CtrlBytes  int `json:"ctrl_bytes"`
}

type drillResult struct {
	Counts drillCounts `json:"counts"`

	spans         *spanLog
	mallocs       uint64 // across the lockstep rounds, spans preallocated
	wireMallocs   uint64 // unmarshal + marshal of the kept frames
	wireFrames    int
	storeNs       float64 // per history.Store
	cleanNsPerMsg float64 // history.CleanTo time per message released
	addNs         float64 // per waitlist.Add
	nextReadyNs   float64 // per waitlist.NextReady
	spanOverhead  float64 // mean duration of an empty span
}

// drillFrame is one encoded PDU queued for delivery.
type drillFrame struct {
	src, dst   mid.ProcID
	start, end int // bytes in drillNet.arena
}

type drillNet struct {
	n      int
	procs  []*core.Process
	rng    *rand.Rand
	drop   float64
	spans  *spanLog
	counts *drillCounts

	queue []drillFrame
	arena []byte // encoded frames of the round in flight
	kept  []byte // first drillKeepFrames frames, for the codec replay
	keptN []int  // their end offsets in kept
}

type drillTransport struct {
	net  *drillNet
	self mid.ProcID
}

// encode marshals one PDU into the arena inside a wire.marshal span.
func (d *drillNet) encode(pdu wire.PDU) (start, end int, ok bool) {
	start = len(d.arena)
	d.spans.begin("wire.marshal")
	buf, err := wire.MarshalAppend(d.arena, pdu)
	d.spans.end()
	if err != nil {
		return 0, 0, false // unencodable PDUs never leave the member
	}
	d.arena = buf
	end = len(buf)
	d.counts.PDUs++
	if pdu.Kind().IsData() {
		d.counts.DataPDUs++
		d.counts.DataBytes += end - start
	} else {
		d.counts.CtrlBytes += end - start
	}
	if len(d.keptN) < drillKeepFrames {
		d.kept = append(d.kept, buf[start:end]...)
		d.keptN = append(d.keptN, len(d.kept))
	}
	return start, end, true
}

func (d *drillNet) enqueue(src, dst mid.ProcID, start, end int) {
	if d.drop > 0 && d.rng.Float64() < d.drop {
		d.counts.Dropped++
		return
	}
	d.queue = append(d.queue, drillFrame{src, dst, start, end})
}

func (t drillTransport) Send(dst mid.ProcID, pdu wire.PDU) {
	if dst == t.self || dst < 0 || int(dst) >= t.net.n {
		return
	}
	if start, end, ok := t.net.encode(pdu); ok {
		t.net.enqueue(t.self, dst, start, end)
	}
}

func (t drillTransport) Broadcast(pdu wire.PDU) {
	start, end, ok := t.net.encode(pdu)
	if !ok {
		return
	}
	for dst := 0; dst < t.net.n; dst++ {
		if mid.ProcID(dst) != t.self {
			t.net.enqueue(t.self, mid.ProcID(dst), start, end)
		}
	}
}

// deliver drains the queue in FIFO order, including whatever the receivers
// send in response, then recycles the arena.
func (d *drillNet) deliver() {
	for i := 0; i < len(d.queue); i++ {
		f := d.queue[i]
		d.spans.begin("wire.unmarshal")
		pdu, err := wire.Unmarshal(d.arena[f.start:f.end])
		d.spans.end()
		if err != nil {
			panic(fmt.Sprintf("drill: own frame does not decode: %v", err))
		}
		d.counts.Deliveries++
		d.spans.begin("core.Recv")
		d.procs[f.dst].Recv(f.src, pdu)
		d.spans.end()
	}
	d.queue = d.queue[:0]
	d.arena = d.arena[:0]
}

// drillRate is how many messages a member submits per subrun: a full
// closed-loop share of the batch, or the open-loop rate times the subrun.
func (w *workload) drillRate() float64 {
	if w.sessions > 0 {
		return float64(min(w.perSubrun(), w.sessions/(w.n*w.groups)))
	}
	return w.rate * 2 * w.round.Seconds()
}

// runDrill steps the workload-shaped group through w.drillSubruns subruns
// and then replays its message stream through history and waitlist.
func runDrill(w *workload, seed int64) (*drillResult, error) {
	res := &drillResult{spans: newSpanLog(maxDrillSpans)}
	d := &drillNet{
		n: w.n, rng: rand.New(rand.NewSource(seed)), drop: w.dropRate,
		spans: res.spans, counts: &res.Counts,
		queue: make([]drillFrame, 0, 1024), arena: make([]byte, 0, 1<<20),
		kept: make([]byte, 0, 1<<22), keptN: make([]int, 0, drillKeepFrames),
	}
	// Span bookkeeping cost, so the per-call figures can be read against it.
	for i := 0; i < 10000; i++ {
		d.spans.begin("harness.empty_span")
		d.spans.end()
	}
	res.spanOverhead = d.spans.meanSelf("harness.empty_span")

	var stream []*causal.Message // member 0's processing order: a causal order
	cc := core.Config{N: w.n, K: paramK, R: paramR, SelfExclusion: true, BatchMax: w.batchMax}
	for i := 0; i < w.n; i++ {
		i := i
		cb := core.Callbacks{OnProcess: func(m *causal.Message) {
			res.Counts.Processed++
			if i == 0 {
				stream = append(stream, m)
			}
		}}
		p, err := core.NewProcess(mid.ProcID(i), cc, drillTransport{d, mid.ProcID(i)}, cb)
		if err != nil {
			return nil, fmt.Errorf("drill: %w", err)
		}
		d.procs = append(d.procs, p)
	}

	rate := w.drillRate()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < 2*w.drillSubruns; r++ {
		if r%2 == 0 {
			res.Counts.Subruns++
			for _, p := range d.procs {
				k := int(rate)
				if d.rng.Float64() < rate-float64(k) {
					k++
				}
				for ; k > 0; k-- {
					payload := make([]byte, payloadSize)
					var err error
					d.spans.begin("core.Submit")
					if w.causal {
						_, err = p.SubmitCausal(payload)
					} else {
						_, err = p.Submit(payload, nil)
					}
					d.spans.end()
					if err != nil {
						return nil, fmt.Errorf("drill: submit: %w", err)
					}
					res.Counts.Submitted++
				}
			}
		}
		for _, p := range d.procs {
			d.spans.begin("core.StartRound")
			p.StartRound(r)
			d.spans.end()
		}
		d.deliver()
	}
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	if res.Counts.Submitted == 0 || res.Counts.PDUs == 0 {
		return nil, fmt.Errorf("drill: nothing submitted in %d subruns", w.drillSubruns)
	}

	res.replayCodec(d)
	res.replayHistory(w.n, stream)
	res.replayWaitlist(w.n, stream)
	return res, nil
}

// replayCodec decodes and re-encodes the kept frames with nothing else
// running, so the malloc delta is the codec's alone.
func (res *drillResult) replayCodec(d *drillNet) {
	buf := make([]byte, 0, 1<<16)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := 0
	for _, end := range d.keptN {
		pdu, err := wire.Unmarshal(d.kept[start:end])
		if err != nil {
			panic(fmt.Sprintf("drill: kept frame does not decode: %v", err))
		}
		buf, _ = wire.MarshalAppend(buf[:0], pdu)
		start = end
	}
	runtime.ReadMemStats(&ms1)
	res.wireMallocs, res.wireFrames = ms1.Mallocs-ms0.Mallocs, len(d.keptN)
}

// replayHistory stores the stream and cleans replayBlock messages behind
// the store frontier, the way stability trails processing.
func (res *drillResult) replayHistory(n int, stream []*causal.Message) {
	h := history.New(n)
	stored := mid.NewSeqVector(n)
	lagging := mid.NewSeqVector(n)
	var storeNs, cleanNs time.Duration
	released := 0
	for at := 0; at < len(stream); at += replayBlock {
		block := stream[at:min(at+replayBlock, len(stream))]
		t0 := time.Now()
		for _, m := range block {
			if err := h.Store(m); err != nil {
				panic(fmt.Sprintf("drill: history replay: %v", err))
			}
		}
		t1 := time.Now()
		released += h.CleanTo(lagging)
		cleanNs += time.Since(t1)
		storeNs += t1.Sub(t0)
		copy(lagging, stored)
		for _, m := range block {
			stored[m.ID.Proc] = m.ID.Seq
		}
	}
	res.storeNs = ratio(float64(storeNs), float64(len(stream)))
	res.cleanNsPerMsg = ratio(float64(cleanNs), float64(released))
}

// replayWaitlist parks each block in reverse order, so all but one message
// wait, then drains it with NextReady the way core's cascade does.
func (res *drillResult) replayWaitlist(n int, stream []*causal.Message) {
	l := waitlist.New(n)
	tr := causal.NewTracker(n)
	var addNs, readyNs time.Duration
	adds, readies := 0, 0
	for at := 0; at < len(stream); at += replayBlock {
		block := stream[at:min(at+replayBlock, len(stream))]
		t0 := time.Now()
		for i := len(block) - 1; i >= 0; i-- {
			l.Add(block[i])
		}
		t1 := time.Now()
		for {
			m := l.NextReady(tr)
			readies++
			if m == nil {
				break
			}
			l.Remove(m.ID)
			if err := tr.Process(m); err != nil {
				panic(fmt.Sprintf("drill: waitlist replay: %v", err))
			}
		}
		readyNs += time.Since(t1)
		addNs += t1.Sub(t0)
		adds += len(block)
	}
	res.addNs = ratio(float64(addNs), float64(adds))
	res.nextReadyNs = ratio(float64(readyNs), float64(readies))
}

// metrics shapes the drill into its per-layer metrics. Per-call costs are
// span self times: a core call's time excludes the marshalling its
// transport did underneath it.
func (res *drillResult) metrics() map[string]metric {
	c, sp := res.Counts, res.spans
	msgs := float64(c.Submitted)
	return map[string]metric{
		"wire.marshal_ns_per_pdu":   {sp.meanSelf("wire.marshal"), "ns"},
		"wire.unmarshal_ns_per_pdu": {sp.meanSelf("wire.unmarshal"), "ns"},
		"wire.allocs_per_pdu":       {ratio(float64(res.wireMallocs), float64(res.wireFrames)), "count"},
		"wire.pdus_per_msg":         {float64(c.PDUs) / msgs, "count"},
		"wire.data_bytes_per_msg":   {float64(c.DataBytes) / msgs, "bytes"},
		"wire.ctrl_bytes_per_msg":   {float64(c.CtrlBytes) / msgs, "bytes"},
		"core.recv_ns_per_pdu":      {sp.meanSelf("core.Recv"), "ns"},
		"core.start_round_ns":       {sp.meanSelf("core.StartRound"), "ns"},
		"core.submit_ns":            {sp.meanSelf("core.Submit"), "ns"},
		"core.drill_allocs_per_msg": {float64(res.mallocs) / msgs, "count"},
		"history.store_ns":          {res.storeNs, "ns"},
		"history.clean_ns_per_msg":  {res.cleanNsPerMsg, "ns"},
		"waitlist.add_ns":           {res.addNs, "ns"},
		"waitlist.next_ready_ns":    {res.nextReadyNs, "ns"},
		"harness.span_overhead_ns":  {res.spanOverhead, "ns"},
	}
}
