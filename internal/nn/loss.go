package nn

import "math"

// BCEWithLogits returns the loss and dLoss/dlogit for a sigmoid output unit
// in one numerically stable computation. Backpropagating through the logit
// (dL/ds = σ(s) − y) avoids the catastrophic cancellation of composing
// the log-loss gradient with the sigmoid derivative, so the model's
// output layer uses this form.
func BCEWithLogits(logit, y float64) (loss, dLogit float64) {
	p := Sigmoid(logit)
	// loss = max(s,0) − s·y + log(1+exp(−|s|)) — the standard stable form.
	loss = math.Max(logit, 0) - logit*y + math.Log1p(math.Exp(-math.Abs(logit)))
	return loss, p - y
}
