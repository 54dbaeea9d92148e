// Package bench implements the experiment runners that regenerate every
// table and figure of the paper's evaluation (§IV–V), scaled to a single
// machine: ranks are goroutines, problem sizes are laptop-sized, and the
// BG/Q columns are model projections from counted work (see
// internal/machine). cmd/haccbench is their only caller (the
// per-experiment index lives in DESIGN.md).
package bench
