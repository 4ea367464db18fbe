// Command ppserve runs the production serving path of §9 in two modes.
//
// Replay mode (default) trains a model, then replays a cohort of users
// through the prediction service (session startup) and the stream
// processor (session finalisation + GRU update) in-process, and reports
// precision/recall of the precompute policy together with the KV-store
// traffic.
//
// Server mode (-serve ADDR) trains the same model and then serves live
// traffic over an HTTP/JSON API — POST /event, POST /predict, GET /statz,
// GET /healthz — backed by a dynamic micro-batcher that coalesces
// concurrent finalisations into the batched GEMM path (flush on -max-batch
// or -max-wait). SIGTERM shuts down gracefully: in-flight work drains and
// the statestore takes a final snapshot. Drive it with cmd/ppload.
// -wire-addr ADDR additionally serves the hot event/predict path over the
// binary wire protocol (internal/wire) on a second listener; the HTTP API
// keeps serving everything else.
//
// With -workers > 1 the replay runs through the concurrent serving path:
// a sharded KV store, a worker-pool stream processor (per-user lanes keep
// update order), and batched fan-out predictions sized by -batch.
//
// Lifecycle flags swap in the durable, memory-bounded statestore:
// -persist DIR enables the WAL + snapshot tier (and -restart-after
// simulates a crash mid-replay, recovering from disk), -evict-after bounds
// state idleness (evicted users fall back to h_0 cold start), -mem-budget
// caps resident bytes, and -quant holds warm states int8-quantized.
//
// -precision f32 runs session finalisation through the fused float32
// kernels instead of the f64 reference path (predictions always score in
// f64). With a lifecycle store, the statestore then holds states under the
// f32 codec, so the resident width matches the compute width.
//
// Usage:
//
//	ppserve -users 500 -threshold 0.5
//	ppserve -users 500 -workers 8 -batch 64
//	ppserve -users 500 -precision f32 -workers 8 -batch 64
//	ppserve -users 500 -persist /tmp/pp -restart-after 0.5
//	ppserve -users 500 -serve :8080 -max-batch 32 -max-wait 2ms
//	ppserve -users 500 -digest   # print the replay's state digest (parity)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/tensor"
)

// flagSet carries every ppserve flag through validation.
type flagSet struct {
	users, epochs, hidden   int
	workers, batch, shards  int
	inferBatch              int
	threshold, restartAfter float64
	persist                 string
	evictAfter              time.Duration
	memBudget               int64
	serve                   string
	wireAddr                string
	maxBatch, laneDepth     int
	maxWait                 time.Duration
	replicaOf               string
	follow                  bool
	quant                   bool
	precision               string
	cpuprofile, memprofile  string
	// set records which flags were explicitly passed (flag.Visit), so
	// validation can reject mode-mismatched flags without guessing from
	// default values.
	set map[string]bool
}

// validate rejects nonsensical flag combinations up front with one clear
// error instead of silent misbehaviour mid-run.
func (f flagSet) validate() error {
	var errs []string
	add := func(msg string) { errs = append(errs, msg) }
	if f.users < 1 {
		add("-users must be >= 1")
	}
	if f.epochs < 0 {
		add("-epochs must be >= 0")
	}
	if f.hidden < 1 {
		add("-hidden must be >= 1")
	}
	if f.threshold < 0 || f.threshold > 1 {
		add("-threshold must be in [0,1] (0 derives it from the 60% precision target)")
	}
	if f.workers < 0 {
		add("-workers must be >= 0")
	}
	if f.batch < 1 {
		add("-batch must be >= 1")
	}
	if f.shards < 1 {
		add("-shards must be >= 1")
	}
	if f.inferBatch < 1 {
		add("-infer-batch must be >= 1 (1 = per-session finalisation)")
	}
	if f.evictAfter < 0 {
		add("-evict-after must be >= 0")
	}
	if f.memBudget < 0 {
		add("-mem-budget must be >= 0")
	}
	if f.restartAfter < 0 || f.restartAfter >= 1 {
		if f.restartAfter != 0 {
			add("-restart-after must be in (0,1) — a fraction of the replay")
		}
	}
	if f.restartAfter > 0 && f.persist == "" {
		add("-restart-after requires -persist (a volatile store cannot recover)")
	}
	if f.serve != "" {
		if f.restartAfter > 0 {
			add("-restart-after is a replay-mode flag, incompatible with -serve")
		}
		if f.cpuprofile != "" || f.memprofile != "" {
			add("-cpuprofile/-memprofile profile the replay only, incompatible with -serve")
		}
		if f.inferBatch > 1 {
			add("-infer-batch is a replay-mode flag; in server mode use -max-batch")
		}
		if f.batch > 1 {
			add("-batch is a replay-mode flag; server-mode predict batching uses -max-batch")
		}
	} else {
		for _, name := range []string{"max-batch", "max-wait", "lane-depth", "replica-of", "follow", "wire-addr"} {
			if f.set[name] {
				add("-" + name + " is a server-mode flag; it has no effect without -serve")
			}
		}
	}
	if f.replicaOf != "" && f.follow {
		add("-replica-of already implies follower mode; drop -follow")
	}
	if (f.replicaOf != "" || f.follow) && f.persist == "" {
		add("follower mode requires -persist (replication applies through the durable statestore)")
	}
	if f.maxBatch < 1 {
		add("-max-batch must be >= 1")
	}
	if f.maxWait < 0 {
		add("-max-wait must be >= 0")
	}
	if f.laneDepth < 1 {
		add("-lane-depth must be >= 1")
	}
	if _, err := nn.ParsePrecision(f.precision); err != nil {
		add("-precision: " + err.Error())
	} else if f.precision == "f32" && f.quant {
		// int8 quantization constants are calibrated against f64-computed
		// states; mixing tiers silently shifts the dequantized distribution.
		add("-precision f32 with -quant is not supported until the int8 scale is recalibrated for the f32 tier; pick one")
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("invalid flags: %s", strings.Join(errs, "; "))
}

func main() {
	var (
		users      = flag.Int("users", 400, "cohort size")
		epochs     = flag.Int("epochs", 3, "RNN training epochs")
		hidden     = flag.Int("hidden", 32, "hidden dimensionality")
		threshold  = flag.Float64("threshold", 0, "precompute threshold (0 = derive from 60% precision target)")
		seed       = flag.Uint64("seed", 1, "seed")
		workers    = flag.Int("workers", 1, "serving concurrency (replay: 1 = sequential compatibility path; serve: finalisation lanes, 0 = GOMAXPROCS)")
		batch      = flag.Int("batch", 1, "prediction micro-batch size when workers > 1 (1 = lock-step parity with the sequential path; use >1, e.g. 64, for throughput)")
		shards     = flag.Int("shards", serving.DefaultShards, "KV store shard count (used when workers > 1)")
		inferBatch = flag.Int("infer-batch", 1, "session-finalisation batch size: due sessions are advanced through the batched GEMM cell in groups of up to this size (states stay byte-identical to 1)")
		digest     = flag.Bool("digest", false, "print the SHA-256 digest of the final hidden states (the HTTP parity gate compares it against the server's /digest)")

		serveAddr = flag.String("serve", "", "run as an online HTTP server on this address (e.g. :8080) instead of replaying in-process")
		wireAddr  = flag.String("wire-addr", "", "also serve the binary wire protocol (hot event/predict path) on this address; requires -serve")
		maxBatch  = flag.Int("max-batch", 32, "server finalisation micro-batch flush size")
		maxWait   = flag.Duration("max-wait", 2*time.Millisecond, "server finalisation micro-batch flush deadline (0 = greedy flush, no waiting); predicts never wait on it")
		laneDepth = flag.Int("lane-depth", 256, "server per-lane finalisation queue bound (full queues shed events with 429)")
		replicaOf = flag.String("replica-of", "", "follow this primary's base URL, replicating its states (requires -serve and -persist)")
		follow    = flag.Bool("follow", false, "start as a standby follower with no primary yet; POST /replicate/follow assigns one (requires -serve and -persist)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
		memprofile = flag.String("memprofile", "", "write a post-replay heap profile to this file")

		faultsFile   = flag.String("faults", "", "arm a deterministic fault-injection scenario from this JSON file (testing only)")
		persist      = flag.String("persist", "", "statestore durability directory (WAL + snapshots); empty = volatile")
		evictAfter   = flag.Duration("evict-after", 0, "idle eviction horizon in virtual time (0 = never evict)")
		memBudget    = flag.Int64("mem-budget", 0, "resident byte budget for hidden states (0 = unbounded)")
		quant        = flag.Bool("quant", false, "hold warm states int8-quantized (1 byte/dim, §9)")
		restartAfter = flag.Float64("restart-after", 0, "simulate a crash + restart after this fraction of the replay (requires -persist)")
		precisionF   = flag.String("precision", "f64", "session-finalisation compute tier: f64 (bit-exact reference) or f32 (fused kernels, bounded-error vs f64); predictions always run f64")
	)
	flag.Parse()

	fs := flagSet{
		users: *users, epochs: *epochs, hidden: *hidden,
		workers: *workers, batch: *batch, shards: *shards,
		inferBatch: *inferBatch,
		threshold:  *threshold, restartAfter: *restartAfter,
		persist: *persist, evictAfter: *evictAfter, memBudget: *memBudget,
		serve: *serveAddr, wireAddr: *wireAddr,
		maxBatch: *maxBatch, maxWait: *maxWait, laneDepth: *laneDepth,
		replicaOf: *replicaOf, follow: *follow,
		quant: *quant, precision: *precisionF,
		cpuprofile: *cpuprofile, memprofile: *memprofile,
		set: map[string]bool{},
	}
	flag.Visit(func(fl *flag.Flag) { fs.set[fl.Name] = true })
	if err := fs.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ppserve: %v\n", err)
		os.Exit(2)
	}
	tier, _ := nn.ParsePrecision(fs.precision) // validated above

	// Arm fault injection before any faultable subsystem (statestore,
	// replication, handlers) comes up, so a scenario covers the whole run.
	if *faultsFile != "" {
		plan, err := faults.Load(*faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppserve: -faults: %v\n", err)
			os.Exit(2)
		}
		if err := faults.Arm(plan); err != nil {
			fmt.Fprintf(os.Stderr, "ppserve: -faults: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("FAULT INJECTION ARMED: %d rule(s) from %s (seed %d)\n",
			len(plan.Rules), *faultsFile, plan.Seed)
	}

	lifecycle := *persist != "" || *evictAfter > 0 || *memBudget > 0 || *quant

	if *serveAddr != "" {
		fmt.Println("== predictive precompute online server ==")
	} else {
		fmt.Println("== predictive precompute serving simulation ==")
	}
	data, split := loadgen.ReplayCohort(*users, *seed)
	fmt.Printf("dataset: %d users, %d sessions, positive rate %.1f%%\n",
		len(data.Users), data.NumSessions(), 100*data.PositiveRate())

	mcfg := core.DefaultConfig()
	mcfg.HiddenDim = *hidden
	mcfg.Seed = *seed
	model := core.New(data.Schema, mcfg)
	if tier == nn.TierF32 && !model.SupportsF32() {
		fmt.Fprintf(os.Stderr, "ppserve: -precision f32: the %s cell has no f32 inference tier\n", model.Cfg.Cell)
		os.Exit(2)
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.BatchUsers = 4
	tc.LR = 2e-3
	tc.Seed = *seed
	fmt.Printf("training RNN (d=%d, %d epochs) on %d users...\n", *hidden, *epochs, len(split.Train.Users))
	loss := core.NewTrainer(model, tc).Train(split.Train)
	fmt.Printf("final training loss: %.4f\n", loss)

	thr := *threshold
	if thr == 0 {
		scores, labels := model.EvaluateSessions(split.Train, split.Train.CutoffForLastDays(7))
		recall, t := metrics.RecallAtPrecision(scores, labels, 0.6)
		thr = t
		fmt.Printf("threshold %.4f targets 60%% precision (training recall %.1f%%)\n", thr, 100*recall)
	}

	ssOpts := statestore.Options{
		Dir:        *persist,
		EvictAfter: int64(evictAfter.Seconds()),
		MemBudget:  *memBudget,
		Shards:     *shards,
	}
	if *quant {
		ssOpts.Codec = statestore.CodecInt8
	} else if tier == nn.TierF32 {
		// Match the resident width to the compute width: the f32 tier's
		// records are tagged tagF32 and stored payload-verbatim, so Get/Put
		// never transcode per dimension.
		ssOpts.Codec = statestore.CodecF32
	}

	if *serveAddr != "" {
		runServer(*serveAddr, model, thr, lifecycle, ssOpts, serverConfig{
			lanes:     *workers,
			maxBatch:  *maxBatch,
			maxWait:   *maxWait,
			laneDepth: *laneDepth,
			shards:    *shards,
			digest:    *digest,
			replicaOf: *replicaOf,
			follow:    *follow,
			wireAddr:  *wireAddr,
			precision: tier,
		})
		return
	}

	// Replay the held-out cohort in global timestamp order, exactly as
	// production traffic would interleave users. The log comes from the
	// same builder ppload uses, so the HTTP parity gate replays identical
	// traffic.
	evs := loadgen.LogFromDataset(split.Test)

	// stack is one generation of the serving tier; a simulated restart
	// tears it down and rebuilds it from the persisted state.
	type stack struct {
		store       serving.Store
		ss          *statestore.Store // non-nil when the lifecycle store is in use
		svc         *serving.PredictionService
		advance     func(ts int64)
		onSession   func(sid string, user int, ts int64, cat []int)
		onAccess    func(sid string, ts int64)
		flush       func()
		updatesRun  func() int64
		pendingLeft func() int
	}
	buildStack := func(announce bool) *stack {
		st := &stack{}
		if lifecycle {
			ss, err := statestore.Open(ssOpts)
			if err != nil {
				fmt.Printf("ppserve: opening statestore: %v\n", err)
				return nil
			}
			st.store, st.ss = ss, ss
			if announce {
				fmt.Printf("state store: statestore (persist=%q codec=%s evict-after=%s mem-budget=%d)\n",
					*persist, ssOpts.Codec, *evictAfter, *memBudget)
				if n := ss.Lifecycle().RecoveredKeys; n > 0 {
					fmt.Printf("note: recovered %d states from a previous run in %s\n", n, *persist)
				}
			}
		}
		if *workers > 1 {
			if st.store == nil {
				sh := serving.NewShardedKVStore(*shards)
				st.store = sh
				if announce {
					fmt.Printf("state store: %d-shard in-memory KV\n", sh.NumShards())
				}
			}
			proc, err := serving.NewParallelStreamProcessor(model, st.store, *workers, *inferBatch, tier)
			if err != nil {
				fmt.Printf("ppserve: %v\n", err) // unreachable: gated on SupportsF32 above
				return nil
			}
			// Advance+Sync preserves the sequential path's read-your-writes
			// semantics at every prediction point.
			st.advance = func(ts int64) { proc.Advance(ts); proc.Sync() }
			st.onSession = proc.OnSessionStart
			st.onAccess = proc.OnAccess
			st.flush = proc.Close
			st.updatesRun = proc.UpdatesRun
			st.pendingLeft = proc.Pending
			if announce {
				fmt.Printf("serving stack: %d worker lanes, batch %d, infer-batch %d, precision %s, kernel %s\n",
					proc.Workers(), maxInt(*batch, 1), maxInt(*inferBatch, 1), tier, tensor.KernelF64())
			}
		} else {
			if st.store == nil {
				st.store = serving.NewKVStore()
				if announce {
					fmt.Println("state store: single-mutex in-memory KV")
				}
			}
			proc := serving.NewStreamProcessor(model, st.store)
			proc.SetInferBatch(*inferBatch)
			if err := proc.SetPrecision(tier); err != nil {
				fmt.Printf("ppserve: %v\n", err) // unreachable: gated on SupportsF32 above
				return nil
			}
			st.advance = proc.Advance
			st.onSession = proc.OnSessionStart
			st.onAccess = proc.OnAccess
			st.flush = proc.Flush
			st.updatesRun = func() int64 { return proc.UpdatesRun }
			st.pendingLeft = proc.Pending
			if announce {
				if *inferBatch > 1 {
					fmt.Printf("serving stack: sequential, infer-batch %d, precision %s, kernel %s\n", *inferBatch, tier, tensor.KernelF64())
				} else {
					fmt.Printf("serving stack: sequential (in-line updates), precision %s\n", tier)
				}
			}
		}
		st.svc = serving.NewPredictionService(model, st.store, thr)
		return st
	}

	cur := buildStack(true)
	if cur == nil {
		return
	}
	bsz := *batch
	if bsz < 1 || *workers <= 1 {
		bsz = 1
	}

	// Counters accumulated across stack generations (a restart must not
	// lose the pre-crash half of the report).
	var tp, fp, fn, tn int
	var acc serving.Stats
	var accPred, accCold, accFail, accUpdates int64
	retire := func(s *stack) {
		s.flush()
		st := s.store.Stats()
		acc.Gets += st.Gets
		acc.Puts += st.Puts
		acc.Misses += st.Misses
		acc.BytesRead += st.BytesRead
		acc.BytesPut += st.BytesPut
		accPred += s.svc.Predictions.Load()
		accCold += s.svc.ColdStarts.Load()
		accFail += s.svc.DecodeFailures.Load()
		accUpdates += s.updatesRun()
	}

	score := func(dec serving.Decision, access bool) {
		switch {
		case dec.Precompute && access:
			tp++
		case dec.Precompute && !access:
			fp++
		case !dec.Precompute && access:
			fn++
		default:
			tn++
		}
	}

	restartAt := -1
	if *restartAfter > 0 && *restartAfter < 1 {
		restartAt = int(float64(len(evs)) * *restartAfter)
	}

	// Profiles cover the replay only — training noise would drown the
	// serving hot path future perf PRs need evidence about.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Printf("ppserve: -cpuprofile: %v\n", err)
			return
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Printf("ppserve: starting CPU profile: %v\n", err)
			return
		}
	}

	t0 := time.Now()
	for lo := 0; lo < len(evs); lo += bsz {
		if restartAt >= 0 && lo >= restartAt {
			restartAt = -1
			// Retire (flush) BEFORE snapshotting the keyset: the flush's
			// final Puts can trigger legitimate evictions, which must not
			// be mistaken for recovery losses.
			retire(cur)
			keysBefore := cur.store.Keys()
			if err := cur.ss.Close(); err != nil {
				fmt.Printf("ppserve: closing statestore: %v\n", err)
				return
			}
			cur = buildStack(false)
			if cur == nil {
				return
			}
			lost := missingKeys(keysBefore, cur.store.Keys())
			ls := cur.ss.Lifecycle()
			fmt.Printf("\n-- simulated restart at event %d --\n", lo)
			fmt.Printf("recovered %d states (replayed %d records, %dB torn tail)\n",
				ls.RecoveredKeys, ls.ReplayedRecords, ls.TornTailBytes)
			if lost == 0 {
				fmt.Println("zero unexpected cold starts: every pre-crash state survived")
			} else {
				fmt.Printf("WARNING: %d states lost across restart (unexpected cold starts ahead)\n", lost)
			}
		}
		hi := lo + bsz
		if hi > len(evs) {
			hi = len(evs)
		}
		group := evs[lo:hi]
		// All predictions in a micro-batch observe the store as of the
		// group's first timestamp (the state a real batched tier would
		// serve from), then the group's stream events are ingested.
		cur.advance(group[0].Ts)
		if bsz == 1 {
			score(cur.svc.OnSessionStart(group[0].User, group[0].Ts, group[0].Cat), group[0].Access)
		} else {
			reqs := make([]serving.PredictRequest, len(group))
			for i, e := range group {
				reqs[i] = serving.PredictRequest{UserID: e.User, Ts: e.Ts, Cat: e.Cat}
			}
			for i, dec := range cur.svc.OnSessionStartBatch(reqs, *workers) {
				score(dec, group[i].Access)
			}
		}
		for _, e := range group {
			cur.onSession(e.SID, e.User, e.Ts, e.Cat)
			if e.Access {
				cur.onAccess(e.SID, e.Ts+30)
			}
		}
	}
	pending := cur.pendingLeft
	retire(cur)
	elapsed := time.Since(t0)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("wrote CPU profile to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Printf("ppserve: -memprofile: %v\n", err)
			return
		}
		runtime.GC() // materialise the live set before the heap snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Printf("ppserve: writing heap profile: %v\n", err)
		}
		f.Close()
		fmt.Printf("wrote heap profile to %s\n", *memprofile)
	}

	fmt.Printf("\nreplayed %d sessions for %d users in %s (%.0f sessions/s)\n",
		len(evs), len(split.Test.Users), elapsed.Round(time.Millisecond),
		float64(len(evs))/elapsed.Seconds())
	if *digest {
		dg, keys := serving.StateDigest(cur.store)
		fmt.Printf("state digest: %s (%d keys)\n", dg, keys)
	}
	precision := 0.0
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	recall := 0.0
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	fmt.Printf("precompute decisions: %d of %d sessions (%.1f%%)\n",
		tp+fp, len(evs), 100*float64(tp+fp)/float64(len(evs)))
	fmt.Printf("precision %.1f%%  recall (successful prefetches) %.1f%%\n", 100*precision, 100*recall)

	final := cur.store.Stats()
	fmt.Printf("\nKV store: %d keys, %d gets (%d misses), %d puts\n",
		final.Keys, acc.Gets, acc.Misses, acc.Puts)
	fmt.Printf("bytes: %d stored (%d per user), %d read, %d written\n",
		final.BytesStored, final.BytesStored/int64(maxInt(final.Keys, 1)), acc.BytesRead, acc.BytesPut)
	fmt.Printf("prediction service: %d cold starts, %d decode failures\n", accCold, accFail)
	fmt.Printf("stream processor: %d hidden updates, %d sessions pending\n", accUpdates, pending())
	fmt.Printf("lookups per prediction: %.2f (the aggregation-based design needs ≈20, §9)\n",
		float64(acc.Gets)/float64(accPred))
	if cur.ss != nil {
		ls := cur.ss.Lifecycle()
		fmt.Printf("lifecycle: %d idle + %d budget evictions, %d snapshots, %d WAL records (%dB), wal-seq %d (snap-seq %d)\n",
			ls.IdleEvictions, ls.BudgetEvictions, ls.Snapshots, ls.WALRecords, ls.WALBytes, ls.WALSeq, ls.SnapSeq)
		if err := cur.ss.Close(); err != nil {
			fmt.Printf("ppserve: statestore error: %v\n", err)
		}
	}
}

// serverConfig bundles the server-mode knobs.
type serverConfig struct {
	lanes, maxBatch, laneDepth int
	maxWait                    time.Duration
	shards                     int
	digest                     bool
	replicaOf                  string
	follow                     bool
	wireAddr                   string
	precision                  nn.PrecisionTier
}

// runServer builds the store, starts the HTTP tier, and shuts down
// gracefully on SIGTERM/SIGINT: the micro-batcher drains and the
// statestore takes a final snapshot before the process exits.
func runServer(addr string, model *core.Model, thr float64, lifecycle bool, ssOpts statestore.Options, cfg serverConfig) {
	var store serving.Store
	var ss *statestore.Store
	if lifecycle {
		var err error
		ss, err = statestore.Open(ssOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppserve: opening statestore: %v\n", err)
			os.Exit(1)
		}
		store = ss
		fmt.Printf("state store: statestore (persist=%q codec=%s)\n", ssOpts.Dir, ssOpts.Codec)
		if n := ss.Lifecycle().RecoveredKeys; n > 0 {
			fmt.Printf("note: recovered %d states from a previous run in %s\n", n, ssOpts.Dir)
		}
	} else {
		store = serving.NewShardedKVStore(cfg.shards)
	}

	wait := cfg.maxWait
	if wait == 0 {
		wait = -1 // ppserve's 0 means "greedy flush"; Options' 0 is the default
	}
	var fol *replication.Follower
	if cfg.replicaOf != "" || cfg.follow {
		fol = replication.NewFollower(ss, cfg.replicaOf)
	}
	srv := server.New(server.Options{
		Model:     model,
		Store:     store,
		State:     ss,
		Threshold: thr,
		Follower:  fol,
		Lanes:     cfg.lanes,
		MaxBatch:  cfg.maxBatch,
		MaxWait:   wait,
		LaneDepth: cfg.laneDepth,
		Precision: cfg.precision,
	})
	if fol != nil {
		fol.Start()
		if cfg.replicaOf != "" {
			fmt.Printf("follower: replicating %s\n", cfg.replicaOf)
		} else {
			fmt.Println("follower: standby (waiting for /replicate/follow)")
		}
	}

	done := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigCh
		fmt.Printf("\nreceived %s, draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ppserve: shutdown: %v\n", err)
		}
	}()

	if cfg.wireAddr != "" {
		wl, err := net.Listen("tcp", cfg.wireAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppserve: -wire-addr: %v\n", err)
			os.Exit(1)
		}
		go func() {
			if err := srv.ServeWire(wl); err != nil {
				fmt.Fprintf(os.Stderr, "ppserve: wire listener: %v\n", err)
			}
		}()
		fmt.Printf("wire protocol on %s\n", wl.Addr())
	}
	fmt.Printf("serving on %s (lanes=%d max-batch=%d max-wait=%s lane-depth=%d precision=%s kernel=%s)\n",
		addr, cfg.lanes, cfg.maxBatch, cfg.maxWait, cfg.laneDepth, cfg.precision, tensor.KernelF64())
	if err := srv.ListenAndServe(addr); err != nil {
		fmt.Fprintf(os.Stderr, "ppserve: %v\n", err)
		os.Exit(1)
	}
	<-done

	st := srv.Stats()
	fmt.Printf("served %d events (%d shed), %d predicts (%d shed)\n",
		st.Events, st.EventsShed, st.Predicts, st.PredictsShed)
	fmt.Printf("micro-batcher: %d updates in %d batches (mean batch %.2f)\n",
		st.UpdatesRun, st.Batches, st.MeanBatch)
	if cfg.digest {
		dg, keys := serving.StateDigest(store)
		fmt.Printf("state digest: %s (%d keys)\n", dg, keys)
	}
	if ss != nil {
		ls := ss.Lifecycle()
		fmt.Printf("lifecycle: %d snapshots, %d WAL records (%dB), wal-seq %d (snap-seq %d)\n",
			ls.Snapshots, ls.WALRecords, ls.WALBytes, ls.WALSeq, ls.SnapSeq)
		if err := ss.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ppserve: statestore error: %v\n", err)
		}
	}
}

// missingKeys counts keys of before absent from after.
func missingKeys(before, after []string) int {
	set := make(map[string]struct{}, len(after))
	for _, k := range after {
		set[k] = struct{}{}
	}
	lost := 0
	for _, k := range before {
		if _, ok := set[k]; !ok {
			lost++
		}
	}
	return lost
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
