// Package urcgc is a complete Go implementation of the urcgc protocol from
// Aiello, Pagani and Rossi, "Causal Ordering in Reliable Group
// Communications" (SIGCOMM 1993): uniform reliable causal multicast built
// on a rotating coordinator, history buffers and reliably circulated
// per-subrun decisions, with the paper's CBCAST and Psync baselines, a
// deterministic simulation substrate, live goroutine/UDP runtimes, and
// experiment drivers regenerating every table and figure of the paper's
// evaluation.
//
// Start with README.md for the tour, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for the paper-vs-measured comparison. The root
// package holds only this overview: the library lives under internal/, the
// commands under cmd/, and every benchmark beside the package it measures
// (the paper's tables and figures in internal/experiments).
package urcgc
