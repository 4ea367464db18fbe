//go:build race

package cluster

// Under the race detector sync.Pool deliberately drops a fraction of Put
// items, so the wire client's pooled reply slots reallocate and
// steady-state allocation pins are meaningless.
const raceEnabled = true
