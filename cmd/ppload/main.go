// Command ppload is the load generator for ppserve's online server mode
// and for pprouter: a command-line driver over internal/loadgen's
// RunLoad. It replays an event log over the HTTP API — closed-loop (a
// fixed pool of connections, each waiting for its responses) or open-loop
// (a target session rate) — interleaves predict requests, and reports
// throughput and latency histograms. With -retry N a failed event post
// (transport error or 5xx) is re-sent in place up to N times; a shed
// (429) post never is.
//
// The log is either regenerated deterministically from the same cohort
// flags ppserve trains on (-users/-seed, which is what makes the parity
// gate possible) or read from a ppgen dataset file (-data). Users are
// sharded across connections so each user's events arrive in timestamp
// order, and a session's start/access pair always rides one POST — the
// ordering contract under which the server's stored states are
// byte-identical to sequential in-process replay.
//
// With -wire HOST:PORT the hot path (events, predicts) rides the binary
// wire protocol over persistent pooled connections while the control plane
// (/flush, /digest, /statz) stays on -addr over HTTP — same sharding, same
// ordering contract, so the digest parity gate applies unchanged.
//
// Usage:
//
//	ppload -addr http://127.0.0.1:8080 -users 500 -concurrency 8
//	ppload -addr http://127.0.0.1:8080 -wire 127.0.0.1:9080 -users 500
//	ppload -data mobiletab.ppds -rate 2000 -predict-every 4
//	ppload -users 120 -seed 7 -expect-digest $(ppserve -users 120 -seed 7 -digest | awk '/state digest/{print $3}')
//	ppload -users 500 -out load.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "http://127.0.0.1:8080", "server base URL")
		wireAddr      = flag.String("wire", "", "drive events and predicts over the binary wire protocol at this host:port (control plane stays on -addr)")
		users         = flag.Int("users", 400, "cohort size to regenerate (must match the server's -users)")
		seed          = flag.Uint64("seed", 1, "cohort seed (must match the server's -seed)")
		data          = flag.String("data", "", "replay a ppgen dataset file instead of regenerating the cohort")
		concurrency   = flag.Int("concurrency", 8, "closed-loop connections (users are sharded across them)")
		eventsPerPost = flag.Int("events-per-post", 16, "events coalesced per POST /event")
		predictEvery  = flag.Int("predict-every", 4, "one POST /predict per this many sessions (0 = none)")
		rate          = flag.Float64("rate", 0, "open-loop sessions/s across all connections (0 = closed loop)")
		doFlush       = flag.Bool("flush", true, "POST /flush after the replay (required for digest parity)")
		doDigest      = flag.Bool("digest", false, "print the server's post-flush state digest")
		expectDigest  = flag.String("expect-digest", "", "fail unless the server's post-flush digest equals this hex (parity gate)")
		requireClean  = flag.Bool("require-clean", false, "exit nonzero if any request was shed (429) or errored")
		waitHealthy   = flag.Duration("wait-healthy", 15*time.Second, "wait this long for /healthz before starting")
		out           = flag.String("out", "", "write the machine-readable load report to this JSON path")
		userLo        = flag.Int("user-lo", -1, "replay only users with ID >= this (-1 = no lower bound); phased replays over disjoint ranges compose because the digest is additive over users")
		userHi        = flag.Int("user-hi", -1, "replay only users with ID <= this (-1 = no upper bound)")
		retry         = flag.Int("retry", 0, "re-send a failed (transport error or 5xx) event post up to this many times in place before advancing — preserves per-user order, so digest parity survives transient cluster faults")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ppload: "+format+"\n", args...)
		os.Exit(1)
	}
	if *concurrency < 1 || *eventsPerPost < 1 || *predictEvery < 0 || *rate < 0 || *retry < 0 {
		fmt.Fprintln(os.Stderr, "ppload: invalid flags: -concurrency and -events-per-post must be >= 1, -predict-every, -rate and -retry >= 0")
		os.Exit(2)
	}
	if *expectDigest != "" && !*doFlush {
		fmt.Fprintln(os.Stderr, "ppload: -expect-digest requires -flush (digests of an undrained server are meaningless)")
		os.Exit(2)
	}

	var log []loadgen.ReplayEvent
	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			fail("%v", err)
		}
		d, err := dataset.Read(f)
		f.Close()
		if err != nil {
			fail("reading %s: %v", *data, err)
		}
		log = loadgen.LogFromDataset(d)
		fmt.Printf("replaying %s: %d sessions for %d users\n", *data, len(log), len(d.Users))
	} else {
		log = loadgen.ReplayLog(*users, *seed)
		fmt.Printf("replaying regenerated cohort (users=%d seed=%d): %d sessions\n", *users, *seed, len(log))
	}

	if *userLo >= 0 || *userHi >= 0 {
		filtered := log[:0]
		for _, ev := range log {
			if (*userLo >= 0 && ev.User < *userLo) || (*userHi >= 0 && ev.User > *userHi) {
				continue
			}
			filtered = append(filtered, ev)
		}
		log = filtered
		fmt.Printf("user range [%d, %d]: %d sessions kept\n", *userLo, *userHi, len(log))
	}

	if err := loadgen.WaitHealthy(*addr, *waitHealthy); err != nil {
		fail("%v", err)
	}

	opts := loadgen.LoadOptions{
		BaseURL:       *addr,
		Concurrency:   *concurrency,
		EventsPerPost: *eventsPerPost,
		PredictEvery:  *predictEvery,
		RatePerSec:    *rate,
		Flush:         *doFlush,
		RetryFailed:   *retry,
		WireAddr:      *wireAddr,
	}
	if *wireAddr != "" {
		fmt.Printf("hot path over wire protocol at %s\n", *wireAddr)
	}
	rep, err := loadgen.RunLoad(opts, log)
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("\n%d sessions (%d events in %d posts, %.1f events/post) in %.0fms — %.0f sessions/s\n",
		rep.Sessions, rep.Events, rep.Posts, rep.EventsPerPostMean, rep.WallMs, rep.SessionsPerSec)
	fmt.Printf("shed: %d events, %d predicts  errors: %d\n", rep.Shed, rep.PredictsShed, rep.Errors)
	if rep.Retries > 0 || rep.DegradedPredicts > 0 {
		fmt.Printf("resilience: %d event-post retries, %d degraded predicts (answered by a non-owner replica)\n",
			rep.Retries, rep.DegradedPredicts)
	}
	printLatency := func(name string, l loadgen.LatencyStats) {
		if l.Count == 0 {
			return
		}
		fmt.Printf("%s latency (ms): p50 %.2f  p90 %.2f  p95 %.2f  p99 %.2f  max %.2f  (n=%d)\n",
			name, l.P50Ms, l.P90Ms, l.P95Ms, l.P99Ms, l.MaxMs, l.Count)
	}
	printLatency("event", rep.EventLatency)
	printLatency("predict", rep.PredictLatency)

	statzBody, err := fetchStatzBody(*addr)
	if err != nil {
		fail("fetching statz: %v", err)
	}
	var statz server.Statz
	if err := json.Unmarshal(statzBody, &statz); err != nil {
		fail("decoding statz: %v", err)
	}
	fmt.Printf("server: %d updates in %d batches (mean batch %.2f), %d events shed, %d predicts shed\n",
		statz.UpdatesRun, statz.Batches, statz.MeanBatch, statz.EventsShed, statz.PredictsShed)
	printReplicaBreakdown(statzBody)

	var keys int
	var dg string
	if *doDigest || *expectDigest != "" {
		keys, dg, err = loadgen.Digest(*addr)
		if err != nil {
			fail("fetching digest: %v", err)
		}
		fmt.Printf("state digest: %s (%d keys)\n", dg, keys)
	}

	if *out != "" {
		doc := struct {
			SchemaVersion int                 `json:"schema_version"`
			GeneratedAt   string              `json:"generated_at"`
			Addr          string              `json:"addr"`
			WireAddr      string              `json:"wire_addr,omitempty"`
			Concurrency   int                 `json:"concurrency"`
			EventsPerPost int                 `json:"events_per_post"`
			PredictEvery  int                 `json:"predict_every"`
			RatePerSec    float64             `json:"rate_per_sec"`
			Report        *loadgen.LoadReport `json:"report"`
			MeanBatch     float64             `json:"mean_batch"`
			UpdatesRun    int64               `json:"updates_run"`
			Digest        string              `json:"digest,omitempty"`
			Keys          int                 `json:"keys,omitempty"`
		}{
			SchemaVersion: 1,
			GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
			Addr:          *addr,
			WireAddr:      *wireAddr,
			Concurrency:   *concurrency,
			EventsPerPost: *eventsPerPost,
			PredictEvery:  *predictEvery,
			RatePerSec:    *rate,
			Report:        rep,
			MeanBatch:     statz.MeanBatch,
			UpdatesRun:    statz.UpdatesRun,
			Digest:        dg,
			Keys:          keys,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fail("encoding report: %v", err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fail("writing %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *expectDigest != "" && dg != *expectDigest {
		fail("digest mismatch: server %s, expected %s — HTTP replay is NOT byte-identical to sequential replay", dg, *expectDigest)
	}
	if *expectDigest != "" {
		fmt.Println("digest parity: HTTP replay is byte-identical to sequential replay")
	}
	if *requireClean && (rep.Shed > 0 || rep.PredictsShed > 0 || rep.Errors > 0 || statz.EventsShed > 0 || statz.PredictsShed > 0) {
		fail("run not clean: %d shed, %d errors (server: %d events shed, %d predicts shed)",
			rep.Shed, rep.Errors, statz.EventsShed, statz.PredictsShed)
	}
}

// fetchStatzBody GETs /statz once; the body is decoded twice (aggregate
// shape + optional per-replica breakdown) so a cluster target is not
// fanned out to its replicas a second time.
func fetchStatzBody(addr string) ([]byte, error) {
	resp, err := http.Get(addr + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statz: HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// printReplicaBreakdown shows the per-replica view when the target is a
// pprouter (a single ppserve has no "replicas" field and prints nothing).
// The forwarding taxonomy is decoded structurally rather than through
// the cluster package: ppload is a pure client of the HTTP contract.
func printReplicaBreakdown(statzBody []byte) {
	type fwdStats struct {
		Attempts       int64 `json:"attempts"`
		Retries        int64 `json:"retries"`
		ConnectRefused int64 `json:"connect_refused"`
		Timeouts       int64 `json:"timeouts"`
		Resets         int64 `json:"resets"`
		Server5xx      int64 `json:"server_5xx"`
		BreakerOpen    int64 `json:"breaker_open"`
		OtherErrors    int64 `json:"other_errors"`
		BreakerTrips   int64 `json:"breaker_trips"`
	}
	var cs struct {
		Replicas []struct {
			URL   string       `json:"url"`
			Statz server.Statz `json:"statz"`
		} `json:"replicas"`
		Reshards         int                 `json:"reshards"`
		Moved            int                 `json:"moved_states"`
		DegradedPredicts int64               `json:"degraded_predicts"`
		Forwarding       map[string]fwdStats `json:"forwarding"`
	}
	if json.Unmarshal(statzBody, &cs) != nil || len(cs.Replicas) == 0 {
		return
	}
	fmt.Printf("cluster: %d replicas, %d reshards, %d states moved, %d degraded predicts\n",
		len(cs.Replicas), cs.Reshards, cs.Moved, cs.DegradedPredicts)
	for _, r := range cs.Replicas {
		fmt.Printf("  %s: %d events, %d updates, %d keys, %d shed\n",
			r.URL, r.Statz.Events, r.Statz.UpdatesRun, r.Statz.Store.Keys, r.Statz.EventsShed)
		if f, ok := cs.Forwarding[r.URL]; ok && f.Attempts > 0 {
			fmt.Printf("    forwards: %d attempts, %d retries; errors: %d refused, %d timeout, %d reset, %d 5xx, %d breaker-open, %d other (%d trips)\n",
				f.Attempts, f.Retries, f.ConnectRefused, f.Timeouts, f.Resets, f.Server5xx, f.BreakerOpen, f.OtherErrors, f.BreakerTrips)
		}
	}
}
