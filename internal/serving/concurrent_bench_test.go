package serving

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/synth"
)

// benchModel is an untrained 64-dim model (the EXPERIMENTS.md headline
// shape): throughput does not depend on the weights, and a realistic
// per-update cost is what the worker pool amortises. The paper's 128-dim
// production shape allocates enough per update that on small (2-core)
// machines GC assist eats the parallel win; 64 keeps the benchmark
// meaningful everywhere.
func benchModel() *core.Model {
	cfg := core.DefaultConfig()
	cfg.HiddenDim = 64
	cfg.MLPHidden = 64
	return core.New(synth.MobileTabSchema(), cfg)
}

// BenchmarkShardedKVStore compares the single-mutex store against the
// sharded store under a concurrent 80/20 read/write workload (the serving
// tier's mix: every prediction is a read, every finalisation a write).
func BenchmarkShardedKVStore(b *testing.B) {
	value := make([]byte, HiddenValueBytes(128))
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("h:%d", i)
	}
	run := func(b *testing.B, store Store) {
		for _, k := range keys {
			store.Put(k, value)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := keys[i%len(keys)]
				if i%5 == 0 {
					store.Put(k, value)
				} else {
					store.Get(k)
				}
				i++
			}
		})
	}
	b.Run("mutex", func(b *testing.B) { run(b, NewKVStore()) })
	b.Run("sharded-16", func(b *testing.B) { run(b, NewShardedKVStore(16)) })
	b.Run("sharded-64", func(b *testing.B) { run(b, NewShardedKVStore(64)) })
}

// BenchmarkParallelStreamUpdate measures session-finalisation throughput:
// one iteration replays a fixed synthetic log and flushes, so the timed
// region is dominated by the GRU updates. The sequential processor is the
// baseline; the parallel processor runs at 1/4/8 worker lanes.
func BenchmarkParallelStreamUpdate(b *testing.B) {
	m := benchModel()
	evs := syntheticLog(64, 4)

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := NewStreamProcessor(m, NewKVStore())
			for _, e := range evs {
				p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
				if e.access {
					p.OnAccess(e.sid, e.ts+30)
				}
			}
			p.Flush()
		}
	})
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := mustParallel(b, m, NewShardedKVStore(16), workers, 1, nn.TierF64)
				for _, e := range evs {
					p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
					if e.access {
						p.OnAccess(e.sid, e.ts+30)
					}
				}
				p.Close()
			}
		})
	}
	// Batched finalisation: the GEMM path amortises weight traffic across
	// each drained group (replay pattern leaves a full backlog at Flush).
	for _, batch := range []int{8, 32} {
		b.Run(fmt.Sprintf("sequential-batch-%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := NewStreamProcessor(m, NewKVStore())
				p.SetInferBatch(batch)
				for _, e := range evs {
					p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
					if e.access {
						p.OnAccess(e.sid, e.ts+30)
					}
				}
				p.Flush()
			}
		})
	}
	for _, workers := range []int{4} {
		b.Run(fmt.Sprintf("workers-%d-batch-32", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := mustParallel(b, m, NewShardedKVStore(16), workers, 32, nn.TierF64)
				for _, e := range evs {
					p.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
					if e.access {
						p.OnAccess(e.sid, e.ts+30)
					}
				}
				p.Close()
			}
		})
	}
}

// BenchmarkBatchFinalise isolates the finalisation kernel from the replay
// machinery (timers, heaps, buffer maps, processor construction): a warmed
// store and a fixed group of due sessions, measured through the finaliser
// at several batch sizes (1 = the scalar per-session step) and hidden dims. This is the apples-to-apples number for the GEMM win; the
// replay benchmarks above include ingest overhead and per-iteration
// processor construction.
func BenchmarkBatchFinalise(b *testing.B) {
	for _, d := range []int{32, 64, 128} {
		cfg := core.DefaultConfig()
		cfg.HiddenDim = d
		cfg.MLPHidden = 64
		m := core.New(synth.MobileTabSchema(), cfg)
		const users = 64
		store := NewKVStore()
		// Warm every user's state so the benchmark measures decode+GRU+encode,
		// not cold starts.
		warm := NewStreamProcessor(m, store)
		for u := 0; u < users; u++ {
			warm.OnSessionStart(fmt.Sprintf("w%d", u), u, synth.DefaultStart+int64(u), []int{u % 4, u % 3})
		}
		warm.Flush()
		due := make([]DueSession, users)
		for u := 0; u < users; u++ {
			due[u] = DueSession{
				UserID: u, Start: synth.DefaultStart + 7200 + int64(u),
				Cat: []int{u % 4, u % 3}, Accessed: u%3 == 0,
			}
		}
		// Batch 1 is the scalar per-session path.
		for _, batch := range []int{1, 8, 32, 64} {
			b.Run(fmt.Sprintf("d%d/batch-%d", d, batch), func(b *testing.B) {
				fin := mustFinalizer(b, m, store, batch, nn.TierF64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fin.Finalize(due)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(due)), "ns/session")
			})
		}
	}
}

// BenchmarkBatchPrediction measures session-startup throughput at 1/4/8
// fan-out goroutines over a warmed store.
func BenchmarkBatchPrediction(b *testing.B) {
	m := benchModel()
	store := NewShardedKVStore(16)
	proc := NewStreamProcessor(m, store)
	const users = 256
	var reqs []PredictRequest
	for u := 0; u < users; u++ {
		ts := int64(1564642800 + u)
		proc.OnSessionStart(fmt.Sprintf("w%d", u), u, ts, []int{u % 4, u % 3})
		reqs = append(reqs, PredictRequest{UserID: u, Ts: ts + 9000, Cat: []int{u % 4, 1}})
	}
	proc.Flush()
	svc := NewPredictionService(m, store, 0.5)

	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				svc.OnSessionStartBatch(reqs, workers)
			}
		})
	}
}

// BenchmarkSequentialLoop pins the per-request baseline OnSessionStartBatch
// is compared against.
func BenchmarkSequentialLoop(b *testing.B) {
	m := benchModel()
	store := NewShardedKVStore(16)
	svc := NewPredictionService(m, store, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.OnSessionStart(i%256, int64(1564642800+i), []int{i % 4, 1})
	}
}
