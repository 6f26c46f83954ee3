package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba, 2015) bound to one MLP.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mW [][]float64
	vW [][]float64
	mB [][]float64
	vB [][]float64
}

// NewAdam returns an Adam optimizer for m with the given learning rate and
// standard moment decay rates.
func NewAdam(m *MLP, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	for _, l := range m.Layers {
		a.mW = append(a.mW, make([]float64, len(l.W)))
		a.vW = append(a.vW, make([]float64, len(l.W)))
		a.mB = append(a.mB, make([]float64, len(l.B)))
		a.vB = append(a.vB, make([]float64, len(l.B)))
	}
	return a
}

// Step applies one gradient-descent update to m using g.
func (a *Adam) Step(m *MLP, g *Grads) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for li, l := range m.Layers {
		a.stepSlice(l.W, g.W[li], a.mW[li], a.vW[li], c1, c2)
		a.stepSlice(l.B, g.B[li], a.mB[li], a.vB[li], c1, c2)
	}
}

// stepSlice applies one Adam step to the parameters p with gradient g and
// moments m, v. Each element is the Go expression below, whichever body
// runs it: the platform prefix takes whole 4-element groups (AVX on amd64;
// gemm_amd64.go) and the Go body the rest.
func (a *Adam) stepSlice(p, g, m, v []float64, c1, c2 float64) {
	a.stepFrom(a.stepVec(p, g, m, v, c1, c2), p, g, m, v, c1, c2)
}

// stepFrom is stepSlice's Go body over elements [i, len(p)).
func (a *Adam) stepFrom(i int, p, g, m, v []float64, c1, c2 float64) {
	for ; i < len(p); i++ {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
		mHat := m[i] / c1
		vHat := v[i] / c2
		p[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
}
