// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): Figure 4 (mean end-to-end delay vs offered load),
// Figure 5 (agreement time vs consecutive coordinator crashes, urcgc vs
// CBCAST), Table 1 (control message counts and sizes), and Figures 6a/6b
// (history length over time, without and with distributed flow control).
//
// Each driver returns a structured result with the measured series plus,
// where the paper gives one, the analytic formula values; Render turns a
// result into the aligned text table cmd/urcgc-bench prints. Absolute
// numbers depend on the simulated substrate; the experiments are judged on
// shape (who wins, by what factor, where the knees are), as EXPERIMENTS.md
// records.
package experiments

import (
	"fmt"
	"strings"
)

// payload returns the fixed-size user payload used across experiments (the
// paper's simulations assume messages fitting the network packet size).
func payload() []byte { return make([]byte, 64) }

// table renders rows of columns with right-aligned numeric columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
