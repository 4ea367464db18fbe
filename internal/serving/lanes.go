package serving

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// UserLane maps a user to one of n lanes (Fibonacci mix over the raw ID —
// no key string is built). It is THE user-partitioning function: the lane
// pool and the load generator's connection sharding both call it, so "all
// of a user's sessions ride one lane" holds by construction across every
// tier.
func UserLane(userID, n int) int {
	h := uint32(userID) * 2654435761
	return int(h % uint32(n))
}

// LaneConfig sizes a LanePool.
type LaneConfig struct {
	// Lanes is the number of bounded queues, each drained by one worker.
	Lanes int
	// Depth bounds each lane's queue.
	Depth int
	// MaxBatch is the most sessions a worker coalesces into one Finalize
	// call (and so bounds the GEMM batch).
	MaxBatch int
	// MaxWait is how long a worker holds a partial batch for stragglers;
	// <= 0 flushes greedily (whatever is already queued).
	MaxWait time.Duration
	// Tier is the finalisation compute tier, fixed for the pool's lifetime.
	Tier nn.PrecisionTier
}

// LanePool is the concurrent back half of the stream processor: due
// sessions are hash-partitioned by user onto bounded FIFO lanes, and each
// lane's worker coalesces what is queued and applies it through its own
// BatchFinalizer. A user's sessions always ride one lane, so per-user
// update order (the only order RNNupdate depends on) is preserved while
// different users' updates run concurrently, and stored states stay
// byte-identical to sequential finalisation. This mirrors the production
// deployment of §9, where the stream processor is partitioned by user ID
// exactly like a keyed Kafka consumer group.
//
// Submit is the sink to hand to StreamProcessor.SetSink. All methods are
// safe for concurrent use, except that nothing may Submit during or after
// Close.
type LanePool struct {
	lanes     []chan DueSession
	maxBatch  int
	maxWait   time.Duration
	workers   sync.WaitGroup
	closeOnce sync.Once

	// inflight counts submitted-but-unfinalised sessions; idle wakes Sync
	// waiters when it reaches zero.
	mu       sync.Mutex
	idle     *sync.Cond
	inflight int

	updatesRun atomic.Int64
	batches    atomic.Int64
}

// NewLanePool starts cfg.Lanes workers finalising into store, which must be
// safe for concurrent use. It fails when the model's cell cannot run
// cfg.Tier.
func NewLanePool(model *core.Model, store Store, cfg LaneConfig) (*LanePool, error) {
	if err := checkTier(model, cfg.Tier); err != nil {
		return nil, err
	}
	lp := &LanePool{
		lanes:    make([]chan DueSession, cfg.Lanes),
		maxBatch: max(cfg.MaxBatch, 1),
		maxWait:  cfg.MaxWait,
	}
	lp.idle = sync.NewCond(&lp.mu)
	for i := range lp.lanes {
		// The buffer is the admission bound: Overloaded trips when a lane
		// fills, so Submit blocks only when a caller ignores it.
		lp.lanes[i] = make(chan DueSession, cfg.Depth)
		lp.workers.Add(1)
		go lp.run(lp.lanes[i], newFinalizer(model, store, lp.maxBatch, cfg.Tier))
	}
	return lp, nil
}

// run drains one lane: take the first queued session, coalesce up to
// maxBatch, finalise the batch. Under light load this degenerates to
// per-session updates; under a backlog the whole batch rides two GEMMs per
// wave.
func (lp *LanePool) run(lane chan DueSession, fin *BatchFinalizer) {
	defer lp.workers.Done()
	batch := make([]DueSession, 0, lp.maxBatch)
	// One stopped wait timer per worker, re-armed by each fillBatch wait.
	// With go 1.24 timer semantics Stop and Reset never leave a stale fire
	// in the channel, so no drain is needed between waits.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for d := range lane {
		batch = append(batch[:0], d)
		fillBatch(lane, &batch, lp.maxBatch, lp.maxWait, timer)
		fin.Finalize(batch)
		lp.batches.Add(1)
		lp.updatesRun.Add(int64(len(batch)))
		lp.mu.Lock()
		lp.inflight -= len(batch)
		if lp.inflight == 0 {
			lp.idle.Broadcast()
		}
		lp.mu.Unlock()
	}
}

// fillBatch coalesces queued items into batch: greedily take whatever is
// already queued, then wait up to maxWait for a fuller flush, on timer,
// which it leaves stopped. It returns early when the batch fills or the
// queue closes.
func fillBatch(q chan DueSession, batch *[]DueSession, maxBatch int, maxWait time.Duration, timer *time.Timer) {
greedy:
	for len(*batch) < maxBatch {
		select {
		case d, ok := <-q:
			if !ok {
				return
			}
			*batch = append(*batch, d)
		default:
			break greedy
		}
	}
	if maxWait <= 0 || len(*batch) >= maxBatch {
		return
	}
	timer.Reset(maxWait)
	defer timer.Stop()
	for len(*batch) < maxBatch {
		select {
		case d, ok := <-q:
			if !ok {
				return
			}
			*batch = append(*batch, d)
		case <-timer.C:
			return
		}
	}
}

// Submit queues d on its user's lane. Callers that submit from one
// goroutine at a time (under the ingest lock) keep submission order equal
// to drain order. The send blocks while the lane is full; workers take no
// caller lock, so that backpressure cannot deadlock, and callers that
// check Overloaded first keep it rare.
func (lp *LanePool) Submit(d DueSession) {
	lp.mu.Lock()
	lp.inflight++
	lp.mu.Unlock()
	lp.lanes[UserLane(d.UserID, len(lp.lanes))] <- d
}

// Sync blocks until every submitted session has been applied to the store.
func (lp *LanePool) Sync() {
	lp.mu.Lock()
	for lp.inflight > 0 {
		lp.idle.Wait()
	}
	lp.mu.Unlock()
}

// Overloaded reports whether the backlog has reached the admission
// watermark — Lanes×Depth in flight globally, or any single lane full. The
// per-lane check matters under skew: a hot lane fills long before the
// global watermark trips, and without it Submit would block the ingest
// lock (head-of-line blocking every caller) instead of shedding. Channel
// len/cap reads are racy by nature; admission is approximate and errs by
// refusing early, never by unbounded queueing.
func (lp *LanePool) Overloaded() bool {
	if lp.Inflight() >= len(lp.lanes)*cap(lp.lanes[0]) {
		return true
	}
	for _, lane := range lp.lanes {
		if len(lane) == cap(lane) {
			return true
		}
	}
	return false
}

// Close finalises whatever is queued and stops the workers. Idempotent.
func (lp *LanePool) Close() {
	lp.closeOnce.Do(func() {
		for _, lane := range lp.lanes {
			close(lane)
		}
	})
	lp.workers.Wait()
}

// Inflight returns the number of submitted-but-unfinalised sessions.
func (lp *LanePool) Inflight() int {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.inflight
}

// Lanes returns the number of lanes (and workers).
func (lp *LanePool) Lanes() int { return len(lp.lanes) }

// UpdatesRun counts completed GRU executions; Batches counts the Finalize
// calls they rode in.
func (lp *LanePool) UpdatesRun() int64 { return lp.updatesRun.Load() }
func (lp *LanePool) Batches() int64    { return lp.batches.Load() }
