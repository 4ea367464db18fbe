package serving

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tensor"
)

// PredictionService is the session-startup path of §9: retrieve the most
// recent hidden state (one KV lookup), run the MLP part of the model with
// the current context, and precompute eagerly when the probability clears
// the threshold.
//
// The service is safe for concurrent use: model inference is read-only,
// the store is concurrency-safe, and the decision counters are atomics.
type PredictionService struct {
	model *core.Model
	store Store
	// Threshold is the precompute decision boundary, chosen offline to
	// target a precision (60% in the production experiment).
	Threshold float64

	// Decision counters for the precision/recall bookkeeping (atomics so
	// batch fan-out never races, and aligned on 32-bit platforms).
	Predictions atomic.Int64
	Precomputes atomic.Int64
	// ColdStarts counts predictions served from h_0 because no usable
	// hidden state was stored (miss, decode failure, or dimension
	// mismatch); DecodeFailures counts the subset where a state WAS stored
	// but could not be used. A nonzero DecodeFailures means the store is
	// corrupting or mis-sizing states — before these counters existed, that
	// was silently indistinguishable from a new user.
	ColdStarts     atomic.Int64
	DecodeFailures atomic.Int64

	// scratch pools *predictScratch, so a steady-state prediction allocates
	// only its key string and the store's Get copy.
	scratch sync.Pool
}

// predictScratch is the working memory of one OnSessionStart call.
type predictScratch struct {
	h   tensor.Vector // decoded recurrent state, StateSize long
	f   tensor.Vector // predict input, PredictDim long
	fwd *core.PredictScratch
}

// NewPredictionService wires a model and store.
func NewPredictionService(model *core.Model, store Store, threshold float64) *PredictionService {
	s := &PredictionService{model: model, store: store, Threshold: threshold}
	s.scratch.New = func() any {
		return &predictScratch{
			h:   tensor.NewVector(model.StateSize()),
			f:   tensor.NewVector(model.PredictDim()),
			fwd: model.NewPredictScratch(),
		}
	}
	return s
}

// Decision is the outcome of one session-startup prediction.
type Decision struct {
	Probability float64
	Precompute  bool
}

// OnSessionStart serves one prediction. Users with no stored hidden state
// fall back to h_0 (cold start, §9).
func (s *PredictionService) OnSessionStart(userID int, ts int64, cat []int) Decision {
	sc := s.scratch.Get().(*predictScratch)
	var lastTS int64
	warm := false
	if raw, ok := s.store.Get(hiddenKey(userID)); ok {
		// DecodeHiddenInto's length check is the state-size check.
		if lastTS, warm = DecodeHiddenInto(raw, sc.h); !warm {
			s.DecodeFailures.Add(1)
		}
	}
	if !warm {
		s.ColdStarts.Add(1)
		sc.h.Zero() // h_0
	}
	var sinceK int64
	if lastTS != 0 {
		sinceK = ts - lastTS
	}
	f := s.model.BuildPredictInput(ts, cat, sinceK, sc.f)
	p := s.model.PredictInto(sc.h[:s.model.HiddenDim()], f, sc.fwd)
	s.scratch.Put(sc)
	s.Predictions.Add(1)
	d := Decision{Probability: p, Precompute: p >= s.Threshold}
	if d.Precompute {
		s.Precomputes.Add(1)
	}
	return d
}

// PredictRequest is one element of a prediction batch.
type PredictRequest struct {
	UserID int
	Ts     int64
	Cat    []int
}

// OnSessionStartBatch serves a batch of independent predictions, fanning
// the requests across `workers` goroutines (<=0 selects GOMAXPROCS).
// Results are returned in request order; decisions are identical to
// calling OnSessionStart per request, because predictions read the store
// but never write it. It is the offline replay's fan-out (ppserve -workers,
// the serving experiments); the online server answers each predict inline
// on the goroutine that read it, because one KV read plus a small MLP is
// cheaper than any hand-off.
func (s *PredictionService) OnSessionStartBatch(reqs []PredictRequest, workers int) []Decision {
	out := make([]Decision, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parallelFor(len(reqs), workers, func(i int) {
		r := reqs[i]
		out[i] = s.OnSessionStart(r.UserID, r.Ts, r.Cat)
	})
	return out
}

// parallelFor runs fn(0..n-1) across `workers` work-stealing goroutines
// (workers <= 1 runs inline). fn must be safe to call concurrently for
// distinct indices.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
