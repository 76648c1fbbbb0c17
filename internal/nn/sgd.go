package nn

import (
	"fmt"

	"fedmp/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay. A single optimiser instance is bound to one network; the
// velocity buffers are keyed by parameter identity.
type SGD struct {
	// LR is the learning rate (must be positive).
	LR float32
	// Momentum in [0,1); 0 disables the velocity term.
	Momentum float32
	// WeightDecay is the L2 penalty coefficient applied to weights.
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

// NewSGD constructs an optimiser.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: SGD learning rate must be positive, got %v", lr))
	}
	if momentum < 0 || momentum >= 1 {
		panic(fmt.Sprintf("nn: SGD momentum must be in [0,1), got %v", momentum))
	}
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: make(map[*Param]*tensor.Tensor)}
}

// Step applies one update to every parameter using its current gradient:
//
//	v ← momentum·v + grad + wd·w
//	w ← w − lr·v
//
// in one pass per parameter. Grad is only read, so it still reports the raw
// data gradient after Step (the FedProx strategy reads it). Each element
// sees the same float32 operations in the same order as applying the terms
// one at a time (grad + wd·w, then momentum·v, then the sum, then the
// weight update); the explicit conversion keeps momentum·v rounded on its
// own rather than fused into the add.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.Frozen {
			continue
		}
		w, g := p.W.Data, p.Grad.Data[:len(p.W.Data)]
		var v []float32
		if s.Momentum > 0 {
			vt, ok := s.velocity[p]
			if !ok {
				vt = tensor.New(p.W.Shape...)
				s.velocity[p] = vt
			}
			v = vt.Data[:len(w)]
		}
		wd, m, lr := s.WeightDecay, s.Momentum, -s.LR
		for i, gi := range g {
			if wd != 0 {
				gi += wd * w[i]
			}
			if v != nil {
				gi = float32(v[i]*m) + gi
				v[i] = gi
			}
			w[i] += lr * gi
		}
	}
}

// Reset clears all velocity buffers. The federated workers call it when a
// new (possibly differently shaped) sub-model arrives, since stale momentum
// from the previous round's structure is meaningless.
func (s *SGD) Reset() { s.velocity = make(map[*Param]*tensor.Tensor) }

// AddProximal adds the FedProx proximal gradient μ·(w − w₀) to each
// parameter's gradient, where w₀ is the round's reference weights in Params
// order. Used by the FedProx baseline strategy.
//
//fedmp:allocfree
func AddProximal(params []*Param, reference []*tensor.Tensor, mu float32) {
	if len(params) != len(reference) {
		panic(fmt.Sprintf("nn: AddProximal got %d reference tensors for %d params", len(reference), len(params)))
	}
	if mu == 0 {
		return
	}
	for i, p := range params {
		if p.Frozen {
			continue
		}
		for j := range p.Grad.Data {
			p.Grad.Data[j] += mu * (p.W.Data[j] - reference[i].Data[j])
		}
	}
}
