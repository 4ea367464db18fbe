//go:build race

package wire

// Under the race detector sync.Pool deliberately drops a fraction of Put
// items, so the client's pooled reply slots reallocate and steady-state
// allocation pins are meaningless.
const raceEnabled = true
