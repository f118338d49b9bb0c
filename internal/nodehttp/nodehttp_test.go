package nodehttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/health"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
	"urcgc/internal/wire"
)

// multiFixture assembles the observability state of a member hosting
// `groups` groups: the series shapes rt.Member registers, and a status whose
// clock the test moves.
type multiFixture struct {
	reg      *obs.Registry
	flight   *obs.Flight
	decision []*obs.Gauge
	tracers  []*lifecycle.Tracer

	mu     sync.Mutex
	groups []rt.Status
}

func newMultiFixture(t *testing.T, groups int) *multiFixture {
	t.Helper()
	f := &multiFixture{reg: obs.New()}
	f.flight = obs.NewFlight(f.reg, obs.FlightOptions{Cap: 64})
	for g := 0; g < groups; g++ {
		l := func(name string) string {
			return obs.Labeled(name, "node", "0", "group", strconv.Itoa(g))
		}
		f.decision = append(f.decision, f.reg.Gauge(l("core_decision_subrun")))
		f.tracers = append(f.tracers, lifecycle.New(0, 3, uint32(g),
			lifecycle.Options{SlowThreshold: time.Hour}, f.reg))
		f.groups = append(f.groups, rt.Status{N: 3, Group: uint32(g), Running: true, Declared: mid.None})
	}
	return f
}

// subruns lets n clock subruns pass in every hosted group; in the groups
// listed in frozen no decision reaches the member meanwhile.
func (f *multiFixture) subruns(n int64, frozen ...int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for g := range f.groups {
		st := &f.groups[g]
		st.Subrun += n
		if !slices.Contains(frozen, g) {
			st.TokenSubrun = st.Subrun
		}
	}
}

func (f *multiFixture) mux(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Mux(Options{
		Registry:  f.reg,
		Flight:    f.flight,
		Lifecycle: func() []*lifecycle.Tracer { return f.tracers },
		Status: func(context.Context) (rt.NodeStatus, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			return rt.NodeStatus{ID: 0, N: 3, K: 3, Groups: slices.Clone(f.groups)}, nil
		},
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestHealthzPerGroupReasons drives the /healthz of a 3-group
// member: healthy while every group's token circulates, then 503 naming
// exactly the group whose token froze.
func TestHealthzPerGroupReasons(t *testing.T) {
	f := newMultiFixture(t, 3)
	srv := f.mux(t)

	f.subruns(8)
	res, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("healthy member /healthz = %d", res.StatusCode)
	}

	f.subruns(health.W+1, 1) // group 1 frozen
	res, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 503 {
		t.Fatalf("degraded member /healthz = %d", res.StatusCode)
	}
	var st health.Status
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Reasons) != 1 || st.Reasons[0].Group != 1 || st.Reasons[0].Rule != "token-stall" {
		t.Fatalf("reasons = %+v, want one token-stall on group 1", st.Reasons)
	}
	if len(st.Groups) != 3 || st.Groups[1].Healthy || !st.Groups[0].Healthy {
		t.Fatalf("per-group verdicts = %+v", st.Groups)
	}
}

// TestTraceGroupFilter pins /trace: it serves the MultiReport of every
// hosted group, ?group=N keeps only that group's element of the same
// document, and an unhosted group is a 400.
func TestTraceGroupFilter(t *testing.T) {
	f := newMultiFixture(t, 2)
	srv := f.mux(t)
	f.tracers[0].Generated(mid.MID{Proc: 0, Seq: 1})
	f.tracers[1].Generated(mid.MID{Proc: 0, Seq: 1}) // same MID, different group
	f.tracers[1].Generated(mid.MID{Proc: 0, Seq: 2})

	get := func(query string) (int, lifecycle.MultiReport) {
		res, err := srv.Client().Get(srv.URL + "/trace" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var rep lifecycle.MultiReport
		if res.StatusCode == 200 {
			if err := json.NewDecoder(res.Body).Decode(&rep); err != nil {
				t.Fatalf("/trace%s: %v", query, err)
			}
		}
		return res.StatusCode, rep
	}
	if _, rep := get("?group=1"); len(rep.Groups) != 1 || rep.Groups[0].Group != 1 || rep.Groups[0].Counts.Started != 2 {
		t.Fatalf("?group=1 report = %+v", rep.Groups)
	}
	if _, rep := get(""); len(rep.Groups) != 2 || rep.Groups[0].Group != 0 || rep.Groups[1].Group != 1 {
		t.Fatalf("unfiltered /trace = %+v", rep.Groups)
	}
	if code, _ := get("?group=7"); code != 400 {
		t.Fatalf("unhosted group code = %d, want 400", code)
	}
}

// TestOneShapeAtEveryG boots a G = 1 and a G = 3 member of the real runtime
// and requires /status?format=json, /healthz and /trace to serve documents
// with identical key sets, differing only in how many groups they list.
func TestOneShapeAtEveryG(t *testing.T) {
	// keys flattens a decoded document into its set of key paths, arrays
	// collapsed.
	var keys func(prefix string, v any, into map[string]bool)
	keys = func(prefix string, v any, into map[string]bool) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				into[prefix+"."+k] = true
				keys(prefix+"."+k, e, into)
			}
		case []any:
			for _, e := range v {
				keys(prefix+"[]", e, into)
			}
		}
	}
	shapes := map[int]map[string]bool{}
	for _, groups := range []int{1, 3} {
		reg := obs.New()
		mesh, err := rt.NewMesh(rt.Config{
			Config:    core.Config{N: 3, K: 3, R: 8},
			Groups:    groups,
			Metrics:   reg,
			Lifecycle: &lifecycle.Options{SlowThreshold: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		mesh.Start()
		t.Cleanup(mesh.Stop)
		srv := httptest.NewServer(Mux(Options{
			Registry:  reg,
			Status:    mesh.Node(0).Status,
			Lifecycle: mesh.Node(0).Lifecycles,
		}))
		t.Cleanup(srv.Close)

		shapes[groups] = map[string]bool{}
		listed := map[string]int{"/status?format=json": groups, "/healthz": groups, "/trace": groups, "/trace?group=0": 1}
		for path, want := range listed {
			res, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			err = json.NewDecoder(res.Body).Decode(&doc)
			res.Body.Close()
			if err != nil || res.StatusCode != 200 {
				t.Fatalf("G=%d %s: code %d, err %v", groups, path, res.StatusCode, err)
			}
			if got, _ := doc["groups"].([]any); len(got) != want {
				t.Fatalf("G=%d %s lists %d groups, want %d", groups, path, len(got), want)
			}
			keys(path, doc, shapes[groups])
		}
	}
	for k := range shapes[3] {
		if !shapes[1][k] {
			t.Errorf("G=3 serves key %s that G=1 does not", k)
		}
	}
	if len(shapes[1]) != len(shapes[3]) || len(shapes[1]) < 30 {
		t.Errorf("G=1 serves %d key paths, G=3 %d; want equal, and the documents non-trivial", len(shapes[1]), len(shapes[3]))
	}
}

// TestTimeseriesLabeledWindow pins that the group-labeled series —
// gauges and histogram projections alike — appear in the /timeseries
// window with one value per sample.
func TestTimeseriesLabeledWindow(t *testing.T) {
	f := newMultiFixture(t, 2)
	srv := f.mux(t)
	f.reg.Histogram(obs.Labeled("topics_submit_to_stable_seconds", "node", "0", "group", "1"), obs.DurationBuckets).Observe(0.002)
	for i := 1; i <= 3; i++ {
		f.decision[1].Set(int64(i))
		f.flight.Sample()
	}

	res, err := srv.Client().Get(srv.URL + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap obs.FlightSnapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Series[`core_decision_subrun{node="0",group="1"}`]; len(got) != 3 || got[2] != 3 {
		t.Fatalf("labeled gauge window = %v", got)
	}
	if got := snap.Series[`topics_submit_to_stable_seconds_count{node="0",group="1"}`]; len(got) != 3 || got[2] != 1 {
		t.Fatalf("histogram projection window = %v", got)
	}
}

// TestStatusTextRendersGroups checks the human /status body lists one
// line per hosted group.
func TestStatusTextRendersGroups(t *testing.T) {
	f := newMultiFixture(t, 2)
	srv := f.mux(t)
	res, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "group 0") || !strings.Contains(body, "group 1") {
		t.Fatalf("status text missing group lines:\n%s", body)
	}
}

// TestCaptureDisabled404 checks a mux built without a capture ring leaves
// /capture unmounted.
func TestCaptureDisabled404(t *testing.T) {
	srv := httptest.NewServer(Mux(Options{Registry: obs.New()}))
	t.Cleanup(srv.Close)
	res, err := srv.Client().Get(srv.URL + "/capture")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 404 {
		t.Fatalf("/capture with capture disabled = %d, want 404", res.StatusCode)
	}
}

// TestCaptureDumpRoundTrip records frames into a ring, fetches the binary
// dump through the endpoint, and decodes it back: the artifact a replayer
// downloads must carry exactly what the runtime recorded. The ?decode=1
// variant must render the same records as JSON with decoded frame bodies.
func TestCaptureDumpRoundTrip(t *testing.T) {
	ring := capture.New(capture.Options{Node: 2, N: 5, K: 2, R: 2})
	frame, _ := wire.MarshalAppend(nil, &wire.Data{Msg: causal.Message{
		ID:      mid.MID{Proc: 1, Seq: 7},
		Payload: []byte("evidence"),
	}})
	ring.Record(capture.DirIngress, 0, 1, capture.Delivered, 0, frame)
	ring.Record(capture.DirEgress, 0, mid.None, capture.Sent, 0, frame)

	srv := httptest.NewServer(Mux(Options{Registry: obs.New(), Capture: ring}))
	t.Cleanup(srv.Close)

	res, err := srv.Client().Get(srv.URL + "/capture")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("binary dump content type = %q", ct)
	}
	dump, err := capture.Decode(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Node != 2 || dump.N != 5 || dump.K != 2 || dump.R != 2 {
		t.Fatalf("dump header = node %d shape %d/%d/%d", dump.Node, dump.N, dump.K, dump.R)
	}
	if len(dump.Records) != 2 {
		t.Fatalf("dump retained %d records, want 2", len(dump.Records))
	}
	in := dump.Records[0]
	if in.Dir != capture.DirIngress || in.Verdict != capture.Delivered || in.Peer != 1 {
		t.Fatalf("ingress record = %+v", in)
	}
	info := capture.Summarize(in.Frame)
	if info.Kind != "DATA" || len(info.MIDs) != 1 || info.MIDs[0] != "p1#7" {
		t.Fatalf("decoded frame = %+v", info)
	}

	res2, err := srv.Client().Get(srv.URL + "/capture?decode=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if ct := res2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("decoded dump content type = %q", ct)
	}
	var view struct {
		Node    int32 `json:"node"`
		Records []struct {
			Dir     string `json:"dir"`
			Verdict string `json:"verdict"`
			Frame   struct {
				Kind string   `json:"kind"`
				MIDs []string `json:"mids"`
			} `json:"frame"`
		} `json:"records"`
	}
	if err := json.NewDecoder(res2.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Node != 2 || len(view.Records) != 2 {
		t.Fatalf("decoded view = node %d, %d records", view.Node, len(view.Records))
	}
	if r := view.Records[1]; r.Dir != "out" || r.Verdict != "sent" || r.Frame.Kind != "DATA" {
		t.Fatalf("decoded egress record = %+v", r)
	}
}

// TestCaptureConcurrentDump hammers the ring with writers while
// repeatedly downloading and decoding /capture — the snapshot under the
// dump must stay internally consistent (meaningful under -race).
func TestCaptureConcurrentDump(t *testing.T) {
	ring := capture.New(capture.Options{Node: 0, N: 3, MaxFrames: 128})
	srv := httptest.NewServer(Mux(Options{Registry: obs.New(), Capture: ring}))
	t.Cleanup(srv.Close)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	frame, _ := wire.MarshalAppend(nil, &wire.Data{Msg: causal.Message{ID: mid.MID{Proc: 1, Seq: 1}}})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ring.Record(capture.DirIngress, 0, 1, capture.Delivered, 0, frame)
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		res, err := srv.Client().Get(srv.URL + "/capture")
		if err != nil {
			t.Fatal(err)
		}
		dump, err := capture.Decode(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(dump.Records); j++ {
			if dump.Records[j].Seq != dump.Records[j-1].Seq+1 {
				t.Fatalf("dump seqs not contiguous at %d: %d then %d",
					j, dump.Records[j-1].Seq, dump.Records[j].Seq)
			}
		}
	}
	close(stop)
	wg.Wait()
}
