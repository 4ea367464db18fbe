//go:build race

package serving

// Under the race detector sync.Pool deliberately drops a fraction of Put
// items, so the GEMM's pooled pack buffers reallocate and steady-state
// allocation pins are meaningless.
const raceEnabled = true
