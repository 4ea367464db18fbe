// Package repro is a from-scratch Go reproduction of "Predictive Precompute
// with Recurrent Neural Networks" (Wang, Wang & Ma, MLSys 2020,
// arXiv:1912.06779).
//
// The paper's system decides, per user and per application session, whether
// to precompute (prefetch) data for an activity by estimating the access
// probability from the user's historical access logs. Its contribution is a
// GRU-based model whose per-user hidden state replaces all time-windowed
// aggregation features, improving accuracy while cutting serving cost by an
// order of magnitude.
//
// Layout:
//
//   - internal/core — the paper's model and training procedure (§6-7)
//   - internal/{tensor,nn,opt} — the neural-network substrate (PyTorch
//     stand-in); a two-tier precision architecture: f64 reference kernels
//     (bit-exact, single-accumulator chains; a feature-detected AVX2
//     GEMM micro-kernel on amd64 that reproduces the portable Go kernel
//     bit-for-bit) plus an f32 fast tier
//     (4-lane accumulation contract, SSE micro-kernel on amd64, fused
//     GRU gate epilogues) selected through nn.PrecisionTier
//   - internal/{baselines,gbdt,features} — the traditional models and the
//     feature engineering they need (§5)
//   - internal/{dataset,synth} — the access-log data model and synthetic
//     versions of the paper's three datasets (§4)
//   - internal/serving — KV stores, the one finalisation pipeline (stream
//     processor ingest front → user-hashed lane pool → wave-partitioned
//     batch finaliser with an f64/f32 tier adapter), prediction service,
//     cost model, online experiment (§9)
//   - internal/statestore — durable, memory-bounded hidden-state store
//     (WAL + snapshots, idle eviction, byte budget, int8 and tagged-f32
//     storage tiers)
//   - internal/server — request-driven online serving tier: HTTP/JSON
//     and wire fronts over serving's ingest front and lane pool, with
//     predicts answered inline on the goroutine that read them (§9)
//   - internal/loadgen — the load client that drives it: replay-log
//     builders and RunLoad over HTTP/JSON or the wire protocol, one
//     worker, retry and predict path for both
//   - internal/cluster — user-sharded serving cluster: consistent-hash
//     ring, forwarding/aggregating router with per-route deadlines,
//     retries, per-replica circuit breakers and degraded predicts,
//     drain-and-handoff resharding, health prober + follower promotion
//     on primary death
//   - internal/wire — persistent-connection binary protocol for the hot
//     event/predict path: length-prefixed CRC-framed requests with
//     pipelined reply correlation, self-delimiting event batches, and
//     the zero-copy splicer the router fans batches out with (HTTP/JSON
//     stays for the control plane)
//   - internal/replication — per-replica WAL shipping: a source tails
//     the statestore WAL to a follower over a persistent connection
//     (snapshot bootstrap, epoch fencing, windowed acks); promotion at
//     replication lag zero loses no acknowledged state
//   - internal/faults — deterministic, seeded fault injection: named
//     fault points threaded through the router, replication, statestore
//     and server seams, nil-op by default, armed from a scenario spec
//     (-faults file.json) so chaos runs replay
//   - internal/experiments — one driver per table/figure (§8-9)
//   - internal/analysis — pplint: project-specific static analyzers that
//     enforce the repo's clock, float-order, locking and durability
//     invariants (internal/analysis/escape is the heap-escape gate)
//   - internal/leakcheck — goroutine-leak assertions for test mains
//   - cmd/{ppgen,ppbench,ppserve,ppload,pprouter} — command-line tools
//   - cmd/{pplint,ppescape} — CI gates: the analyzer driver and the
//     escape-analysis regression checker over cmd/ppescape/hotpaths.conf
//   - examples/ — runnable walkthroughs of the public API
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for measured-vs-paper results.
package repro
