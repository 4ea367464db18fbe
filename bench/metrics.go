package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one row of the benchmark contract. The tables below are the
// source of truth for names, units and directions; BENCHMARK.json at the
// repo root repeats them for the driver and bench_test.go pins the two
// against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	What   string
}

// endToEnd lists the gated metrics, reported for every workload with
// tracing off. Bounds were fixed from the A/A runs recorded in README.md.
// The three time-based ones sit at the contract's cap: on the shared
// reference box their widest interquartile spread over ten seeds is 8-11 %
// even after the quiet-window reduction and the speed adjustment, and a
// bound must clear the spread several times over to mean anything.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median wall time of one complete program set-up (model, stores, preload, servers, connections, digest pre-check, warm-up segment) over the run's set-up rounds; speed-adjusted"},
	{"sessions_per_s", "1/s", "higher", 0.25, "sessions accepted and finalised (flush drained) per wall second, second-best segment, speed-adjusted; open loop: achieved ingest rate, as measured"},
	{"cpu_ms_per_ksession", "ms", "lower", 0.25, "process user+sys CPU per 1000 sessions of the workload's fixed traffic mix, second-best segment, speed-adjusted"},
	{"predict_p50_ms", "ms", "lower", 0.15, "predict round trip, median; open loop: from the scheduled send time"},
	{"allocs_per_session", "1", "lower", 0.02, "heap allocations (runtime.MemStats.Mallocs delta) per session"},
	{"peak_mem_mb", "MB", "lower", 0.20, "VmHWM of the workload's process at exit"},
	{"state_bytes_per_user", "B", "lower", 0.01, "Store.Stats().BytesStored / Keys after the final flush"},
}

// perLayer lists the ungated metrics of the traced run. A layer that is not
// on a workload's path reports 0 there.
var perLayer = []metricDef{
	// Demoted from the gated list: the A/A spread of the tail on a shared
	// 2-core box needs more than the 10 % the issue allows a gated metric.
	{"predict_p95_ms", "ms", "lower", 0, "predict round trip, 95th percentile (demoted from end-to-end, see README)"},

	{"tensor.gemm_ns_per_session", "ns", "lower", 0, "ledger: recurrent-side MulMatT at the realised batch, per row"},
	{"tensor.matvec_ns_per_session", "ns", "lower", 0, "ledger: input-side MulVec on a one-hot update input"},
	{"tensor.gemm_flops_per_session", "1", "lower", 0, "2*3d*(d+in), computed"},
	{"tensor.gemm_gflops", "GF/s", "higher", 0, "ledger: achieved rate of the recurrent GEMM"},

	{"nn.step_batch_ns_per_session", "ns", "lower", 0, "ledger: GRUCell.StepInferBatch{,32} at the realised batch, per row"},
	{"nn.step_scalar_ns_per_session", "ns", "lower", 0, "ledger: GRUCell.StepInfer{,32}"},
	{"nn.epilogue_ns_per_session", "ns", "lower", 0, "step_batch - gemm - matvec: gate maths, bias adds, panel copies"},

	{"features.encode_ns_per_session", "ns", "lower", 0, "ledger: ContextVector{,32}"},

	{"core.update_batch_ns_per_session", "ns", "lower", 0, "ledger: Model.UpdateStatesInto{,32} at the realised batch, per row"},
	{"core.predict_ns", "ns", "lower", 0, "ledger: BuildPredictInput + Predict"},

	{"serving.ingest_ns_per_event", "ns", "lower", 0, "ledger: StreamProcessor.OnSessionStart/OnAccess with a discarding sink"},
	{"serving.finalize_ns_per_session", "ns", "lower", 0, "ledger: BatchFinalizer.Finalize on captured due sessions"},
	{"serving.finalize_allocs_per_session", "1", "lower", 0, "ledger: Mallocs delta of the same pass"},
	{"serving.codec_ns_per_state", "ns", "lower", 0, "ledger: EncodeHiddenInto + DecodeHiddenInto at the workload's tier"},
	{"serving.predict_service_ns", "ns", "lower", 0, "ledger: PredictionService.OnSessionStart on a warm store"},
	{"serving.kv_get_ns", "ns", "lower", 0, "ledger: ShardedKVStore.Get"},
	{"serving.kv_put_ns", "ns", "lower", 0, "ledger: ShardedKVStore.Put"},

	{"statestore.put_us_p50", "us", "lower", 0, "in situ: Store.Put through the timing decorator"},
	{"statestore.put_us_p95", "us", "lower", 0, "same, 95th percentile"},
	{"statestore.get_us_p50", "us", "lower", 0, "in situ: Store.Get"},
	{"statestore.get_us_p95", "us", "lower", 0, "same, 95th percentile"},
	{"statestore.puts", "count", "lower", 0, "Puts during the traced segments"},
	{"statestore.gets", "count", "lower", 0, "Gets during the traced segments"},
	{"statestore.miss_ratio", "1", "lower", 0, "Misses / Gets during the traced segments"},
	{"statestore.wal_bytes_per_session", "B", "lower", 0, "WAL bytes appended per session"},
	{"statestore.snapshots", "count", "lower", 0, "snapshots taken during the traced segments"},
	{"statestore.snapshot_ms", "ms", "lower", 0, "ledger: one forced Snapshot() after the run"},
	{"statestore.recover_ms", "ms", "lower", 0, "ledger: Close + Open on the run's directory"},
	{"statestore.recover_keys", "count", "higher", 0, "keys recovered by that Open"},

	{"replication.lag_records_p50", "count", "lower", 0, "primary WALSeq - follower LastSeq, sampled every 100 ms"},
	{"replication.lag_records_max", "count", "lower", 0, "same, maximum"},
	{"replication.catchup_ms", "ms", "lower", 0, "final flush to follower caught up"},
	{"replication.apply_ns_per_record", "ns", "lower", 0, "ledger: Store.Import on a durable store, the follower's apply step"},

	{"wire.encode_ns_per_event", "ns", "lower", 0, "ledger: AppendStart/AppendAccess"},
	{"wire.decode_ns_per_event", "ns", "lower", 0, "ledger: EventReader.Next"},
	{"wire.frame_ns_per_post", "ns", "lower", 0, "ledger: Writer.WriteEvents + ReadFrame over a bytes.Buffer"},
	{"wire.split_ns_per_event", "ns", "lower", 0, "ledger: Splicer.Split on a 3-replica ring"},
	{"wire.io_calls_per_session", "1", "lower", 0, "read+write calls on the wire listeners' connections (router and replicas) per session"},
	{"wire.bytes_per_session", "B", "lower", 0, "request bytes the generator wrote per session"},
	{"wire.events_per_post", "1", "higher", 0, "realised events per post"},

	{"server.mean_batch", "1", "higher", 0, "finalised sessions per finaliser batch"},
	{"server.batches", "count", "lower", 0, "finaliser batches during the traced segments"},
	{"server.events_shed", "count", "lower", 0, "events answered 429"},
	{"server.predicts_shed", "count", "lower", 0, "predicts answered 429"},
	{"server.cold_starts", "count", "lower", 0, "predicts served from h0"},
	{"server.event_ack_p50_ms", "ms", "lower", 0, "event post round trip, median"},
	{"server.event_ack_p95_ms", "ms", "lower", 0, "same, 95th percentile"},
	{"server.flush_drain_ms", "ms", "lower", 0, "/flush round trip that ends a segment, median"},
	{"server.http_event_handle_us_p50", "us", "lower", 0, "middleware around Server.Handler(): POST /event"},
	{"server.http_predict_handle_us_p50", "us", "lower", 0, "middleware around Server.Handler(): POST /predict"},
	{"server.http_io_calls_per_session", "1", "lower", 0, "read+write calls on the HTTP listeners' connections per session"},
	{"server.predict_p99_ms", "ms", "lower", 0, "predict round trip, 99th percentile; 0 when fewer than ten samples lie beyond"},
	{"server.residual_ns_per_session", "ns", "lower", 0, "end-to-end CPU ns/session minus the layer groups below: scheduling, lane wait, GC, the generator"},

	{"share.tensor_nn_pct", "%", "lower", 0, "share of CPU/session: ledger GRU step at the realised batch"},
	{"share.serving_pct", "%", "lower", 0, "share: ingest + finalize outside the GRU step and the store + predict service"},
	{"share.store_pct", "%", "lower", 0, "share: store seam medians (+ follower apply)"},
	{"share.wire_cluster_pct", "%", "lower", 0, "share: frame codec, splice, ring, and the wire listeners' io calls at the loopback price"},
	{"share.server_http_pct", "%", "lower", 0, "share: /event handler median plus the net/http floor per request"},
	{"share.residual_pct", "%", "lower", 0, "share not explained by the groups above"},

	{"cluster.ring_lookup_ns", "ns", "lower", 0, "ledger: Ring.OwnerIndexOfUser"},
	{"cluster.forward_attempts", "count", "lower", 0, "Router.ForwardingStats attempts"},
	{"cluster.forward_retries", "count", "lower", 0, "Router.ForwardingStats retries"},
	{"cluster.degraded_predicts", "count", "lower", 0, "Router.DegradedPredicts"},
	{"cluster.owner_skew", "1", "lower", 0, "max/mean finalised sessions per replica"},

	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", 0, "MemStats.PauseTotalNs delta per wall second"},
	{"runtime.gc_cycles", "count", "lower", 0, "MemStats.NumGC delta"},
	{"runtime.heap_live_mb", "MB", "lower", 0, "MemStats.HeapAlloc after the last traced segment's GC"},

	{"bench.gen_late_p95_ms", "ms", "lower", 0, "open loop: how late the generator sent, 95th percentile"},
	{"bench.calib_spin_ms_before", "ms", "lower", 0, "fixed spin loop before the run"},
	{"bench.calib_spin_ms_after", "ms", "lower", 0, "same loop after the run; >10 % apart marks the run contended"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "sessions_per_s lost with the decorators on"},
	{"bench.speed_probe_ns", "ns", "lower", 0, "median of the run's speed-probe readings (CPU per loopback call between segments)"},
	{"bench.speed_factor", "1", "lower", 0, "what the run's time-based end-to-end figures were divided by"},
	{"bench.raw_sessions_per_s", "1/s", "higher", 0, "sessions_per_s of the undecorated segment as measured, before the speed adjustment"},
	{"bench.raw_cpu_ms_per_ksession", "ms", "lower", 0, "cpu_ms_per_ksession of the undecorated segment as measured"},
	{"bench.loopback_io_ns", "ns", "lower", 0, "ledger: CPU of one read or write call on a loopback TCP connection, hand-off included"},
	{"bench.http_floor_ns", "ns", "lower", 0, "ledger: CPU of one small POST through net/http with an empty handler, both ends"},
	{"bench.input_gen_s", "s", "lower", 0, "time the benchmark spent generating and sorting the cohort"},
}

// measured is one reported value with the number of samples behind it.
type measured struct {
	Value   float64
	Samples int
}

type metricSet map[string]measured

func (m metricSet) set(name string, v float64, n int) { m[name] = measured{v, n} }

// tailSamples is how many samples must lie beyond a reported quantile.
const tailSamples = 10

// errTooFewSamples is the refusal of quantile.
type errTooFewSamples struct {
	p    float64
	n    int
	need int
}

func (e errTooFewSamples) Error() string {
	return fmt.Sprintf("quantile %.3g refused: %d samples, need %d to leave %d beyond it", e.p, e.n, e.need, tailSamples)
}

// quantile returns the nearest-rank p-quantile of sorted (ascending): the
// smallest sample with at least p*n samples at or below it. It refuses a
// p that leaves fewer than tailSamples samples beyond the returned one,
// except the median, which any non-empty sample supports.
func quantile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errTooFewSamples{p, 0, 1}
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	if p > 0.5 && n-1-i < tailSamples {
		return 0, errTooFewSamples{p, n, int(math.Ceil(tailSamples/(1-p) - 1e-9))}
	}
	return sorted[i], nil
}

// highestQuantile returns the highest of the candidate quantiles the
// sample supports, and its value.
func highestQuantile(sorted []float64, candidates ...float64) (p, v float64) {
	for i := len(candidates) - 1; i >= 0; i-- {
		if q, err := quantile(sorted, candidates[i]); err == nil {
			return candidates[i], q
		}
	}
	return 0, 0
}

// quantileOr returns 0 for a refused quantile; the refusal itself is
// printed by the caller.
func quantileOr(sorted []float64, p float64) float64 {
	v, err := quantile(sorted, p)
	if err != nil {
		return 0
	}
	return v
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the middle pair for even n); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method, matching Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
