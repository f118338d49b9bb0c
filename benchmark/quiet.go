package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The quiet-host gate. On a shared VM the host takes the vCPUs away for
// minutes at a time: a process that wants every core then gets a quarter to
// a half of them, every workload costs two to three times the CPU per
// message, and the mesh latencies triple (README.md, stability probes). A
// run started in such a stretch measures the neighbours. Before measuring,
// the harness therefore asks for every core for a moment and waits, within
// limits, until it gets them.
const (
	// quietShare is the share of the CPU time asked for that the host must
	// grant. A quiet host gives 0.93 or more, a busy one 0.2 to 0.5.
	quietShare = 0.85
	quietProbe = 100 * time.Millisecond
	quietPause = 3 * time.Second
	// quietMaxWait bounds the wait of one invocation, quietLedgerCap the
	// waits of all invocations sharing a state directory: the driver caps
	// the total time of its runs, not only each one's. Void legs (run.go)
	// are charged to the same ledger, so on a host that costs the runs
	// legs the harness spends less time waiting for it to go quiet.
	quietMaxWait   = 40 * time.Second
	quietLedgerCap = 500 * time.Second
	quietLedger    = "quiet-wait-seconds"
)

// busyShare spins on every core for quietProbe and returns the share of
// that CPU time the process was actually given. Stolen time is not charged
// to the guest's processes, so the share falls when the host is busy.
func busyShare() float64 {
	n := runtime.GOMAXPROCS(0)
	cpu0, _, err := cpuTime()
	if err != nil {
		return 1 // cannot tell: do not wait
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < quietProbe {
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu1, _, err := cpuTime()
	if err != nil {
		return 1
	}
	return float64(cpu1-cpu0) / (float64(wall) * float64(n))
}

// waitForQuietHost probes the host and, while it is busy, pauses and probes
// again, for at most quietMaxWait and at most what is left of the ledger in
// stateDir (no ledger when stateDir is empty). It returns the last share
// seen and how long it waited.
func waitForQuietHost(stateDir string) (share float64, waited time.Duration) {
	budget := min(quietMaxWait, quietLedgerCap-readLedger(stateDir))
	start := time.Now()
	for {
		share = busyShare()
		waited = time.Since(start)
		if share >= quietShare || waited+quietPause > budget {
			break
		}
		fmt.Fprintf(os.Stderr, "benchmark: host busy (granted %.0f%% of the CPU asked for); waiting for a quiet stretch\n", 100*share)
		time.Sleep(quietPause)
	}
	if waited > time.Second {
		chargeLedger(stateDir, waited)
	}
	return share, waited
}

// chargeLedger adds extra time this invocation spent to the ledger in dir.
func chargeLedger(dir string, extra time.Duration) {
	if dir != "" && extra > 0 {
		writeLedger(dir, readLedger(dir)+extra)
	}
}

func readLedger(dir string) time.Duration {
	if dir == "" {
		return 0
	}
	b, err := os.ReadFile(filepath.Join(dir, quietLedger))
	if err != nil {
		return 0 // no ledger yet
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

func writeLedger(dir string, total time.Duration) {
	// Losing the ledger only loosens the cap on waiting; say so and go on.
	if err := os.WriteFile(filepath.Join(dir, quietLedger), []byte(strconv.FormatFloat(total.Seconds(), 'f', 1, 64)+"\n"), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: quiet-host ledger:", err)
	}
}
