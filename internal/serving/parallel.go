package serving

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/nn"
)

// Lane sizing of the replay processor: a worker flushes whatever its lane
// already holds (replay never waits for stragglers), and 128 queued
// sessions per lane keep the ingest side from blocking on a busy worker.
const (
	parallelLaneDepth = 128
	parallelMaxWait   = -1
)

// ParallelStreamProcessor is the multi-core replay variant of
// StreamProcessor: the same ingest front under one mutex, with a LanePool
// as its sink, so due sessions are finalised by user-partitioned workers
// instead of inline.
//
// All methods are safe for concurrent use. Replays that interleave
// predictions with updates and need the sequential path's read-your-writes
// behaviour should call Sync after Advance; the zero-lag equivalence with
// StreamProcessor then holds byte for byte (see
// TestParallelMatchesSequential).
type ParallelStreamProcessor struct {
	// mu guards front. The pool's Submit runs under it (inside the front's
	// drain); workers never take it, so a full lane cannot deadlock.
	mu    sync.Mutex
	front *StreamProcessor
	pool  *LanePool
}

// NewParallelStreamProcessor wires a model and store and starts `workers`
// finalisation lanes (<=0 selects GOMAXPROCS). Each worker greedily drains
// up to inferBatch queued sessions per round through the batched cell
// (<=1 finalises one session at a time) on the given compute tier, which a
// cell without that tier rejects. The store must be safe for concurrent
// use; both KVStore and ShardedKVStore are.
func NewParallelStreamProcessor(model *core.Model, store Store, workers, inferBatch int, tier nn.PrecisionTier) (*ParallelStreamProcessor, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool, err := NewLanePool(model, store, LaneConfig{
		Lanes:    workers,
		Depth:    parallelLaneDepth,
		MaxBatch: inferBatch,
		MaxWait:  parallelMaxWait,
		Tier:     tier,
	})
	if err != nil {
		return nil, err
	}
	p := &ParallelStreamProcessor{front: NewStreamProcessor(model, store), pool: pool}
	p.front.SetSink(pool.Submit)
	return p, nil
}

// Advance moves the virtual clock to ts, queueing any due sessions on the
// worker lanes in timer order. It returns as soon as they are queued; call
// Sync to wait for the updates to land in the store.
func (p *ParallelStreamProcessor) Advance(ts int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.front.Advance(ts)
}

// OnSessionStart records the context of a new session and arms its
// finalisation timer.
func (p *ParallelStreamProcessor) OnSessionStart(sessionID string, userID int, ts int64, cat []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.front.OnSessionStart(sessionID, userID, ts, cat)
}

// OnAccess records an access event for an in-flight session.
func (p *ParallelStreamProcessor) OnAccess(sessionID string, ts int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.front.OnAccess(sessionID, ts)
}

// Sync blocks until every queued finalisation has been applied to the
// store. Advance+Sync is the parallel analogue of the sequential Advance.
func (p *ParallelStreamProcessor) Sync() { p.pool.Sync() }

// Flush fires all outstanding timers regardless of the clock (end of
// replay) and waits for the updates to land.
func (p *ParallelStreamProcessor) Flush() {
	p.mu.Lock()
	p.front.Flush()
	p.mu.Unlock()
	p.pool.Sync()
}

// Close flushes outstanding work and stops the worker pool. The processor
// must not be used after Close.
func (p *ParallelStreamProcessor) Close() {
	p.Flush()
	p.pool.Close()
}

// Pending returns the number of in-flight (buffered, not yet queued)
// sessions.
func (p *ParallelStreamProcessor) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.front.Pending()
}

// UpdatesRun counts completed GRU executions.
func (p *ParallelStreamProcessor) UpdatesRun() int64 { return p.pool.UpdatesRun() }

// Workers returns the worker-pool size.
func (p *ParallelStreamProcessor) Workers() int { return p.pool.Lanes() }
