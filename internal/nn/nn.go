// Package nn is a small dense neural-network library built for the TD3/DDPG
// training stack in internal/rl: multilayer perceptrons with ReLU/tanh/
// sigmoid activations, reverse-mode gradients (including input gradients,
// which actor-critic updates need), Adam, soft target updates, and JSON
// serialization. Everything is deterministic given a seeded RNG.
//
// Inference runs through ForwardInto (one sample) and ForwardBatchInto;
// training runs through the batched trace/backward kernels in gemm.go. On
// amd64 the forward products run on AVX kernels (gemm_amd64.s): 4-row
// panels of a batch, and a one-row kernel for ForwardInto and for the rows
// a batch has left, so a served decision never runs scalar Go. Every kernel
// is bit-identical to its Go body, which -tags purego builds alone.
// ForwardTrace and Backward are the scalar reference those kernels are
// tested against; no production path runs them.
package nn

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/simcore"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Tanh
	Sigmoid
)

func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// apply computes the activation elementwise in place.
func (a Activation) apply(v []float64) {
	switch a {
	case ReLU:
		// x < 0 without a branch (random signs mispredict half of them):
		// clear x to +0 exactly when its sign bit is set and its magnitude
		// bits are in [1, +Inf's], so −0 and NaNs of either sign stay.
		const inf = 0x7ff0000000000000
		for i, x := range v {
			b := math.Float64bits(x)
			_, inRange := bits.Sub64((b&^(1<<63))-1, inf, 0)
			v[i] = math.Float64frombits(b &^ -(b >> 63 & inRange))
		}
	case Tanh:
		for i, x := range v {
			v[i] = math.Tanh(x)
		}
	case Sigmoid:
		for i, x := range v {
			v[i] = 1 / (1 + math.Exp(-x))
		}
	}
}

// derivFromOutput returns dact/dz given the activated output y (all our
// activations admit that form, which avoids caching z).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// Dense is one fully connected layer: y = act(W·x + b), with W stored
// row-major (Out rows of In columns).
type Dense struct {
	In, Out int
	W       []float64
	B       []float64
	Act     Activation
}

// MLP is a feed-forward stack of Dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes and per-layer activations
// (len(acts) must equal len(sizes)-1). Weights use Xavier/He-style fan-in
// scaled initialization from the provided RNG.
func NewMLP(rng *simcore.RNG, sizes []int, acts []Activation) *MLP {
	if len(sizes) < 2 || len(acts) != len(sizes)-1 {
		panic(fmt.Sprintf("nn: bad MLP shape sizes=%v acts=%v", sizes, acts))
	}
	m := &MLP{}
	for i := 0; i < len(sizes)-1; i++ {
		in, out := sizes[i], sizes[i+1]
		l := &Dense{In: in, Out: out, W: make([]float64, in*out), B: make([]float64, out), Act: acts[i]}
		scale := math.Sqrt(2 / float64(in)) // He init (good for ReLU, fine for tanh heads)
		if acts[i] == Tanh || acts[i] == Sigmoid || acts[i] == Linear {
			scale = math.Sqrt(1 / float64(in)) // Xavier-ish for saturating heads
		}
		for j := range l.W {
			l.W[j] = rng.NormFloat64() * scale
		}
		m.Layers = append(m.Layers, l)
	}
	return m
}

// InputDim reports the expected input width.
func (m *MLP) InputDim() int { return m.Layers[0].In }

// OutputDim reports the output width.
func (m *MLP) OutputDim() int { return m.Layers[len(m.Layers)-1].Out }

// Scratch holds reusable ping-pong buffers for ForwardInto, sized to the
// widest layer of the MLP it was built for. A Scratch is not safe for
// concurrent use; give each goroutine its own.
type Scratch struct {
	a, b []float64
}

// NewScratch allocates scratch buffers wide enough for every layer of m.
func NewScratch(m *MLP) *Scratch {
	w := m.Layers[0].In
	for _, l := range m.Layers {
		if l.In > w {
			w = l.In
		}
		if l.Out > w {
			w = l.Out
		}
	}
	return &Scratch{a: make([]float64, w), b: make([]float64, w)}
}

// ForwardInto runs inference using s's buffers instead of allocating. The
// returned slice aliases the scratch and is valid only until the next
// ForwardInto call with the same Scratch. Each layer copies its bias and
// runs the one-row product from it (rowMulTAdd: the AVX kernel on amd64),
// so every output is ForwardTrace's chain, B[o] then += W[o][i]·x[i] in i
// order, and the outputs equal ForwardTrace's bit for bit.
func (m *MLP) ForwardInto(x []float64, s *Scratch) []float64 {
	cur := x
	useA := true
	for _, l := range m.Layers {
		next := s.b[:l.Out]
		if useA {
			next = s.a[:l.Out]
		}
		useA = !useA
		copy(next, l.B)
		rowMulTAdd(next, cur, l.W, l.In)
		l.Act.apply(next)
		cur = next
	}
	return cur
}

// Trace caches the per-layer activations of one forward pass so Backward
// can run. acts[0] is the input; acts[i+1] is layer i's output.
type Trace struct {
	acts [][]float64
}

// Output returns the network output of the traced pass.
func (t *Trace) Output() []float64 { return t.acts[len(t.acts)-1] }

// ForwardTrace runs inference and records the activations.
func (m *MLP) ForwardTrace(x []float64) *Trace {
	tr := &Trace{acts: make([][]float64, 0, len(m.Layers)+1)}
	tr.acts = append(tr.acts, x)
	cur := x
	for _, l := range m.Layers {
		next := make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			sum := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i, xi := range cur {
				sum += row[i] * xi
			}
			next[o] = sum
		}
		l.Act.apply(next)
		tr.acts = append(tr.acts, next)
		cur = next
	}
	return tr
}

// Grads accumulates parameter gradients with the same shapes as the MLP.
type Grads struct {
	W [][]float64
	B [][]float64
}

// NewGrads allocates a zeroed gradient buffer for m.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	for _, l := range m.Layers {
		g.W = append(g.W, make([]float64, len(l.W)))
		g.B = append(g.B, make([]float64, len(l.B)))
	}
	return g
}

// Zero clears the accumulated gradients.
func (g *Grads) Zero() {
	for i := range g.W {
		clearSlice(g.W[i])
		clearSlice(g.B[i])
	}
}

func clearSlice(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Add accumulates o's gradients into g. The deterministic pairwise shard
// reduction of the batched TD3 update is built on it; o must have been
// allocated for the same network shape. It runs on the axpy kernel: 1·x is
// x exactly, so every element is g + o as a plain loop would add it.
func (g *Grads) Add(o *Grads) {
	for i := range g.W {
		axpy(1, o.W[i], g.W[i])
		axpy(1, o.B[i], g.B[i])
	}
}

// Scale multiplies all gradients by s (e.g. 1/batchSize), in place on the
// axpySet kernel, which has no zero-scale early-out.
func (g *Grads) Scale(s float64) {
	for i := range g.W {
		axpySet(s, g.W[i], g.W[i])
		axpySet(s, g.B[i], g.B[i])
	}
}

// Backward accumulates parameter gradients into g for the traced pass given
// dOut = dLoss/dOutput, and returns dLoss/dInput (actor-critic updates
// backpropagate the critic's input gradient into the actor).
func (m *MLP) Backward(tr *Trace, dOut []float64, g *Grads) []float64 {
	delta := make([]float64, len(dOut))
	copy(delta, dOut)
	for li := len(m.Layers) - 1; li >= 0; li-- {
		l := m.Layers[li]
		in := tr.acts[li]
		out := tr.acts[li+1]
		// Through the activation.
		for o := range delta {
			delta[o] *= l.Act.derivFromOutput(out[o])
		}
		// Parameter gradients.
		gw := g.W[li]
		gb := g.B[li]
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			gb[o] += d
			row := gw[o*l.In : (o+1)*l.In]
			for i, xi := range in {
				row[i] += d * xi
			}
		}
		// Input gradient for the next (previous) layer.
		next := make([]float64, l.In)
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i := range next {
				next[i] += d * row[i]
			}
		}
		delta = next
	}
	return delta
}

// Clone returns a deep copy (used to spawn target networks).
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		nl := &Dense{In: l.In, Out: l.Out, Act: l.Act,
			W: append([]float64(nil), l.W...),
			B: append([]float64(nil), l.B...)}
		c.Layers = append(c.Layers, nl)
	}
	return c
}

// SoftUpdate moves target's parameters toward src: θ' ← τ·θ + (1−τ)·θ'.
func SoftUpdate(target, src *MLP, tau float64) {
	for li := range target.Layers {
		tl, sl := target.Layers[li], src.Layers[li]
		for i := range tl.W {
			tl.W[i] += tau * (sl.W[i] - tl.W[i])
		}
		for i := range tl.B {
			tl.B[i] += tau * (sl.B[i] - tl.B[i])
		}
	}
}
