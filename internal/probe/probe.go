// Package probe is the shared HTTP-collection substrate of every
// urcgc-ctl subcommand that sweeps a cluster's nodehttp endpoints —
// inspect (/status, /metrics, /healthz, /timeseries), trace (/trace) and
// replay (/capture). It holds the one copy of what each of them needs:
// where the members are and how long to wait (Cluster), normalizing
// "host:port" into a base URL, one bounded GET that checks the status and
// decodes the body, and an order-preserving parallel fan-out over the node
// list. The diagnosis logic stays in the callers.
package probe

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"
)

// Cluster is what every sweep is told: where the members' observability
// endpoints are and how patient to be with each.
type Cluster struct {
	// Nodes lists the observability addresses, "host:port" or full URLs.
	Nodes []string
	// Timeout bounds each HTTP request; 0 means 3s.
	Timeout time.Duration
	// Client overrides the HTTP client (tests); nil uses the default.
	Client *http.Client
}

// Get performs one GET of base+path bounded by c.Timeout and returns the
// body. A status other than 200 — or one of the codes in also, for
// endpoints whose error status still carries the document — is an error
// naming the code and the first line of the body.
func (c Cluster) Get(ctx context.Context, base, path string, also ...int) ([]byte, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	body, code, err := Fetch(ctx, c.Client, base+path)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK && !slices.Contains(also, code) {
		line, _, _ := bytes.Cut(bytes.TrimSpace(body), []byte("\n"))
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, code, line)
	}
	return body, nil
}

// GetJSON is Get with the body decoded into v.
func (c Cluster) GetJSON(ctx context.Context, base, path string, v any, also ...int) error {
	body, err := c.Get(ctx, base, path, also...)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// MaxBody bounds one response body read (16MB) — larger than any
// endpoint legitimately answers, small enough that a misconfigured
// address pointing at a log stream cannot exhaust memory.
const MaxBody = 16 << 20

// NormalizeAddr turns "host:port" into a base URL without a trailing
// slash; addresses that already carry a scheme pass through.
func NormalizeAddr(a string) string {
	a = strings.TrimSpace(a)
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return strings.TrimRight(a, "/")
}

// Fetch performs one GET bounded by ctx, returning the body (limited to
// MaxBody) and the HTTP status code. A nil client uses the default.
func Fetch(ctx context.Context, client *http.Client, url string) ([]byte, int, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBody))
	return body, resp.StatusCode, err
}

// Fanout probes every address concurrently and returns the results in
// input order: out[i] = fn(i, addrs[i]). fn must confine itself to its
// own slot; partial failure is whatever fn encodes into its result (the
// callers all carry an Err field), never a panic across slots.
func Fanout[T any](addrs []string, fn func(i int, addr string) T) []T {
	out := make([]T, len(addrs))
	done := make(chan struct{})
	for i, a := range addrs {
		go func(i int, addr string) {
			out[i] = fn(i, addr)
			done <- struct{}{}
		}(i, a)
	}
	for range addrs {
		<-done
	}
	return out
}
