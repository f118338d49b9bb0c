package probe

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		" 127.0.0.1:9100 ":        "http://127.0.0.1:9100",
		"http://node:9100/":       "http://node:9100",
		"https://node:9100/path/": "https://node:9100/path",
	}
	for in, want := range cases {
		if got := NormalizeAddr(in); got != want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFetchBounded pins that Fetch truncates an over-budget body instead
// of reading it all: a misconfigured address must not exhaust memory.
func TestFetchBounded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		chunk := strings.Repeat("x", 1<<20)
		for i := 0; i < 20; i++ {
			if _, err := fmt.Fprint(w, chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	body, code, err := Fetch(context.Background(), srv.Client(), srv.URL)
	if err != nil || code != 200 {
		t.Fatalf("fetch: code %d err %v", code, err)
	}
	if len(body) != MaxBody {
		t.Fatalf("body = %d bytes, want truncation at %d", len(body), MaxBody)
	}
}

// TestFanoutOrder pins that results land in input order regardless of
// completion order, and that per-slot failures stay in their slot.
func TestFanoutOrder(t *testing.T) {
	addrs := []string{"a", "b", "c", "d"}
	got := Fanout(addrs, func(i int, addr string) string {
		return fmt.Sprintf("%d:%s", i, addr)
	})
	for i, addr := range addrs {
		if want := fmt.Sprintf("%d:%s", i, addr); got[i] != want {
			t.Fatalf("slot %d = %q, want %q", i, got[i], want)
		}
	}
}

// TestClusterGet pins the one "GET, check the status, decode" helper: 200
// decodes, any other status is an error naming it — unless the caller
// listed it as also carrying the document — and a slow node costs Timeout.
func TestClusterGet(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/sick":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/slow":
			<-r.Context().Done()
			return
		}
		fmt.Fprint(w, `{"v": 7}`)
	}))
	t.Cleanup(srv.Close)
	c := Cluster{Timeout: 200 * time.Millisecond, Client: srv.Client()}
	var doc struct{ V int }
	if err := c.GetJSON(context.Background(), srv.URL, "/ok", &doc); err != nil || doc.V != 7 {
		t.Fatalf("200: %v, %+v", err, doc)
	}
	if err := c.GetJSON(context.Background(), srv.URL, "/sick", &doc); err == nil || !strings.Contains(err.Error(), "/sick: HTTP 503") {
		t.Fatalf("unlisted 503 = %v, want an error naming it", err)
	}
	if err := c.GetJSON(context.Background(), srv.URL, "/sick", &doc, http.StatusServiceUnavailable); err != nil {
		t.Fatalf("listed 503: %v", err)
	}
	if _, err := c.Get(context.Background(), srv.URL, "/slow"); err == nil {
		t.Fatal("request outlived Cluster.Timeout")
	}
}
