// Batched dense kernels: the minibatch-as-matrix layer the TD3 update is
// built on. A minibatch of B states is one B×in row-major matrix, a Dense
// layer is one (B×in)·(in×out) product plus a bias row-add and an
// elementwise activation — B separate vector passes collapse into a handful
// of kernels whose inner loops are independent multiply-adds (no serial
// dot-product dependency chain) walking rows sequentially.
//
// Layout convention: every matrix is a flat row-major []float64; a "B×n"
// buffer holds row r at [r*n : (r+1)*n]. Weights keep the Dense layout
// (Out rows of In columns), so the forward product is MatMulT against W and
// the backward input-gradient product is MatMul against W — neither ever
// materializes a transpose.
//
// The kernels are cache-blocked along the k (reduction) dimension: one
// block of the B matrix row is reused across all m rows of A while it is
// hot, which keeps the working set inside L1 even for wide layers. For the
// layer sizes the training stack uses (≤ a few hundred columns) a single
// block suffices and the blocking collapses to the plain loop.
package nn

import "math"

// gemmBlockK is the reduction-dimension block size. 256 float64 columns are
// 2 KiB per row — several rows of both operands fit in L1 alongside the
// accumulator row.
const gemmBlockK = 256

// MatMul computes dst[m×n] = a[m×k] · b[k×n], overwriting dst. All slices
// are flat row-major; dst must not alias a or b.
func MatMul(dst, a, b []float64, m, k, n int) {
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		k1 := k0 + gemmBlockK
		if k1 > k {
			k1 = k
		}
		// Row pairs share each streamed b-row. Every output element keeps
		// its own accumulator updated in p order, so the pairing is
		// bit-identical to the single-row loop.
		i := 0
		for ; i+2 <= m; i += 2 {
			d0 := dst[i*n : (i+1)*n]
			d1 := dst[(i+1)*n : (i+2)*n]
			if k0 == 0 {
				clearSlice(d0)
				clearSlice(d1)
			}
			a0 := a[i*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			for p := k0; p < k1; p++ {
				axpy2(a0[p], a1[p], b[p*n:(p+1)*n], d0, d1)
			}
		}
		for ; i < m; i++ {
			drow := dst[i*n : (i+1)*n]
			if k0 == 0 {
				clearSlice(drow)
			}
			arow := a[i*k : (i+1)*k]
			for p := k0; p < k1; p++ {
				axpy(arow[p], b[p*n:(p+1)*n], drow)
			}
		}
	}
}

// MatMulT computes dst[m×n] = a[m×k] · b[n×k]ᵀ, overwriting dst: b holds
// the right operand already transposed (n rows of k columns — the Dense
// weight layout). dst must not alias a or b.
//
// The kernel walks four b-rows (four output columns) per pass: the a-row is
// streamed once per pass and the four accumulator chains are independent,
// so the loop is latency-bound on neither loads nor adds.
func MatMulT(dst, a, b []float64, m, k, n int) {
	// 2×4 register blocking: a pair of a-rows shares each loaded b-column
	// block, so the inner loop retires 8 independent multiply-adds per 6
	// loads instead of 8 per 10, and every output keeps its own serial
	// accumulator (results are bit-identical to the single-row path).
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*k : (i+1)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k : (i+2)*k]
		d0 := dst[i*n : (i+1)*n : (i+1)*n]
		d1 := dst[(i+1)*n : (i+2)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k : (j+4)*k]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for p, av0 := range a0 {
				av1 := a1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			bcol := b[j*k : (j+1)*k]
			d0[j] = dot(a0, bcol)
			d1[j] = dot(a1, bcol)
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : (i+1)*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
		}
		for ; j < n; j++ {
			drow[j] = dot(arow, b[j*k:(j+1)*k])
		}
	}
}

// MatMulTAcc computes dst[k×n] += a[m×k]ᵀ · b[m×n], accumulating into dst
// (the weight-gradient product: dW += deltaᵀ·input with a, b swapped into
// this shape). dst must not alias a or b.
func MatMulTAcc(dst, a, b []float64, m, k, n int) {
	matMulTAccRows(dst, a, b, 0, m, k, n)
}

// matMulTAccRows accumulates rows [r0, m) of the MatMulTAcc product.
// Sample-row pairs share each dst row's load/store pass; a is a ReLU-masked delta
// in the backward pass, so the per-scale zero-skips in axpy/axpy21 matter.
func matMulTAccRows(dst, a, b []float64, r0, m, k, n int) {
	r := r0
	for ; r+2 <= m; r += 2 {
		a0 := a[r*k : (r+1)*k]
		a1 := a[(r+1)*k : (r+2)*k]
		b0 := b[r*n : (r+1)*n]
		b1 := b[(r+1)*n : (r+2)*n]
		for i := 0; i < k; i++ {
			axpy21(a0[i], b0, a1[i], b1, dst[i*n:(i+1)*n])
		}
	}
	for ; r < m; r++ {
		arow := a[r*k : (r+1)*k]
		brow := b[r*n : (r+1)*n]
		for i := 0; i < k; i++ {
			axpy(arow[i], brow, dst[i*n:(i+1)*n])
		}
	}
}

// MatMulTSet computes dst[k×n] = a[m×k]ᵀ · b[m×n], overwriting dst. It is
// MatMulTAcc without the pre-zeroing a caller would otherwise need — the
// first row assigns, the rest accumulate — so single-shot weight-gradient
// products skip a Grads.Zero pass.
func MatMulTSet(dst, a, b []float64, m, k, n int) {
	if m == 0 {
		clearSlice(dst[:k*n])
		return
	}
	arow := a[:k]
	brow := b[:n]
	for i := 0; i < k; i++ {
		axpySet(arow[i], brow, dst[i*n:(i+1)*n])
	}
	matMulTAccRows(dst, a, b, 1, m, k, n)
}

// AddBiasRows adds bias (length n) to every row of dst[rows×n].
func AddBiasRows(dst, bias []float64, rows, n int) {
	for r := 0; r < rows; r++ {
		drow := dst[r*n : (r+1)*n]
		for j, bj := range bias {
			drow[j] += bj
		}
	}
}

// ColSumAcc accumulates the column sums of a[rows×n] into dst (length n) —
// the bias-gradient kernel.
func ColSumAcc(dst, a []float64, rows, n int) {
	for r := 0; r < rows; r++ {
		arow := a[r*n : (r+1)*n]
		for j, v := range arow {
			dst[j] += v
		}
	}
}

// ColSumSet overwrites dst (length n) with the column sums of a[rows×n].
func ColSumSet(dst, a []float64, rows, n int) {
	if rows == 0 {
		clearSlice(dst[:n])
		return
	}
	copy(dst[:n], a[:n])
	for r := 1; r < rows; r++ {
		arow := a[r*n : (r+1)*n]
		for j, v := range arow {
			dst[j] += v
		}
	}
}

// The four axpy kernels below are the streaming inner loops of MatMul and
// the MatMulT{Acc,Set} weight-gradient products. Each has one Go body,
// xFrom(i, …), that runs elements [i, n), and a platform prefix, xVec(…),
// that handles the largest multiple-of-4 prefix it can and returns its
// length: AVX on amd64 (gemm_amd64.go), nothing elsewhere or under -tags
// purego (gemm_generic.go). Every element gets the same correctly rounded
// multiply-then-add in both, so the two are bit-identical (DESIGN.md
// "Batched linear algebra"); the zero-scale early-outs live here, above the
// dispatch, because skipping dst += 0*x is observable for NaN/Inf/−0 inputs.

// axpy computes dst += s * x elementwise. The iterations are independent,
// so the loop streams instead of serializing on one accumulator the way a
// dot product does.
func axpy(s float64, x, dst []float64) {
	if s == 0 {
		return
	}
	if i := axpyVec(s, x, dst); i < len(dst) {
		axpyFrom(i, s, x, dst)
	}
}

// axpyFrom is axpy's Go body over elements [i, len(dst)); the 4-way unroll
// keeps bounds checks out of the hot path.
func axpyFrom(i int, s float64, x, dst []float64) {
	n := len(dst)
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		xv := x[i : i+4 : i+4]
		d[0] += s * xv[0]
		d[1] += s * xv[1]
		d[2] += s * xv[2]
		d[3] += s * xv[3]
	}
	for ; i < n; i++ {
		dst[i] += s * x[i]
	}
}

// axpy2 computes d0 += s0 * x and d1 += s1 * x, streaming x once for both
// destinations. Falls back to axpy (with its zero-skip) when either scale
// is zero — ReLU-masked deltas make that common.
func axpy2(s0, s1 float64, x, d0, d1 []float64) {
	if s0 == 0 {
		axpy(s1, x, d1)
		return
	}
	if s1 == 0 {
		axpy(s0, x, d0)
		return
	}
	if i := axpy2Vec(s0, s1, x, d0, d1); i < len(d0) {
		axpy2From(i, s0, s1, x, d0, d1)
	}
}

func axpy2From(i int, s0, s1 float64, x, d0, d1 []float64) {
	n := len(d0)
	for ; i+4 <= n; i += 4 {
		xv := x[i : i+4 : i+4]
		e0 := d0[i : i+4 : i+4]
		e1 := d1[i : i+4 : i+4]
		e0[0] += s0 * xv[0]
		e1[0] += s1 * xv[0]
		e0[1] += s0 * xv[1]
		e1[1] += s1 * xv[1]
		e0[2] += s0 * xv[2]
		e1[2] += s1 * xv[2]
		e0[3] += s0 * xv[3]
		e1[3] += s1 * xv[3]
	}
	for ; i < n; i++ {
		d0[i] += s0 * x[i]
		d1[i] += s1 * x[i]
	}
}

// axpy21 computes dst += s0 * x0 + s1 * x1, streaming dst once for both
// sources (the transposed-product dual of axpy2). The two contributions
// fold in a fixed order, so results depend only on the row pairing, not on
// which worker ran it.
func axpy21(s0 float64, x0 []float64, s1 float64, x1, dst []float64) {
	if s0 == 0 {
		axpy(s1, x1, dst)
		return
	}
	if s1 == 0 {
		axpy(s0, x0, dst)
		return
	}
	if i := axpy21Vec(s0, x0, s1, x1, dst); i < len(dst) {
		axpy21From(i, s0, x0, s1, x1, dst)
	}
}

func axpy21From(i int, s0 float64, x0 []float64, s1 float64, x1, dst []float64) {
	n := len(dst)
	for ; i+4 <= n; i += 4 {
		u := x0[i : i+4 : i+4]
		v := x1[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] += s0*u[0] + s1*v[0]
		d[1] += s0*u[1] + s1*v[1]
		d[2] += s0*u[2] + s1*v[2]
		d[3] += s0*u[3] + s1*v[3]
	}
	for ; i < n; i++ {
		dst[i] += s0*x0[i] + s1*x1[i]
	}
}

// axpySet computes dst = s * x elementwise (no early-out on s == 0: the
// overwrite must happen even for a zero scale).
func axpySet(s float64, x, dst []float64) {
	if i := axpySetVec(s, x, dst); i < len(dst) {
		axpySetFrom(i, s, x, dst)
	}
}

func axpySetFrom(i int, s float64, x, dst []float64) {
	n := len(dst)
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		xv := x[i : i+4 : i+4]
		d[0] = s * xv[0]
		d[1] = s * xv[1]
		d[2] = s * xv[2]
		d[3] = s * xv[3]
	}
	for ; i < n; i++ {
		dst[i] = s * x[i]
	}
}

// dot computes the inner product of a and b using four parallel
// accumulators, breaking the add-latency dependency chain of the naive
// loop. The final reduction order (0+2)+(1+3) is fixed, so results are
// deterministic (though not bit-identical to the serial scalar loop —
// callers comparing against ForwardInto use a small tolerance).
func dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		av := a[i : i+4 : i+4]
		bv := b[i : i+4 : i+4]
		s0 += av[0] * bv[0]
		s1 += av[1] * bv[1]
		s2 += av[2] * bv[2]
		s3 += av[3] * bv[3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s2) + (s1 + s3)
}

// applyRows applies the activation elementwise over a flat rows×n matrix
// (every activation is elementwise, so the flat buffer is enough). ReLU
// clamps via a sign-bit mask: pre-activation signs are effectively random,
// so a compare-and-store loop would mispredict on half the elements.
func (a Activation) applyRows(m []float64) {
	if a != ReLU {
		a.apply(m)
		return
	}
	for i, x := range m {
		b := math.Float64bits(x)
		m[i] = math.Float64frombits(b &^ uint64(int64(b)>>63))
	}
}

// mulDerivRows multiplies delta elementwise by dact/dz computed from the
// activated outputs y (delta, y are flat rows×n matrices).
func (a Activation) mulDerivRows(delta, y []float64) {
	switch a {
	case Linear:
		return
	case ReLU:
		// y is a post-ReLU output, so y > 0 exactly when y's bits are
		// nonzero; build an all-ones mask from that predicate and clear
		// delta branchlessly (same misprediction argument as applyRows).
		for i, yi := range y {
			t := math.Float64bits(yi)
			mask := uint64(int64(t|-t) >> 63)
			delta[i] = math.Float64frombits(math.Float64bits(delta[i]) & mask)
		}
	case Tanh:
		for i, yi := range y {
			delta[i] *= 1 - yi*yi
		}
	case Sigmoid:
		for i, yi := range y {
			delta[i] *= yi * (1 - yi)
		}
	default:
		for i := range delta {
			delta[i] *= a.derivFromOutput(y[i])
		}
	}
}

// BatchScratch holds the ping-pong row-matrix buffers for ForwardBatchInto
// and BackwardBatchInto, sized for a fixed maximum batch (rows) and the
// widest layer of the MLP it was built for. Not safe for concurrent use;
// give each goroutine (or gradient shard) its own.
type BatchScratch struct {
	rows int
	a, b []float64
}

// NewBatchScratch allocates batch scratch for up to rows samples of m.
func NewBatchScratch(m *MLP, rows int) *BatchScratch {
	w := maxWidth(m)
	return &BatchScratch{rows: rows, a: make([]float64, rows*w), b: make([]float64, rows*w)}
}

// Rows reports the maximum batch size the scratch was built for.
func (s *BatchScratch) Rows() int { return s.rows }

func maxWidth(m *MLP) int {
	w := m.Layers[0].In
	for _, l := range m.Layers {
		if l.In > w {
			w = l.In
		}
		if l.Out > w {
			w = l.Out
		}
	}
	return w
}

// BatchTrace caches the per-layer activation matrices of one batched
// forward pass. acts[0] is the (copied) rows×in input; acts[i+1] is layer
// i's rows×out output.
type BatchTrace struct {
	rows int
	acts [][]float64
}

// NewBatchTrace allocates a reusable trace for batches of up to rows
// samples of m. ForwardBatchTraceInto may be called with fewer rows; the
// buffers are simply underfilled.
func NewBatchTrace(m *MLP, rows int) *BatchTrace {
	tr := &BatchTrace{rows: rows, acts: make([][]float64, len(m.Layers)+1)}
	tr.acts[0] = make([]float64, rows*m.Layers[0].In)
	for i, l := range m.Layers {
		tr.acts[i+1] = make([]float64, rows*l.Out)
	}
	return tr
}

// Rows reports the maximum batch size the trace was built for.
func (t *BatchTrace) Rows() int { return t.rows }

// Output returns the rows×out output matrix of the traced pass, valid for
// the row count of the last ForwardBatchTraceInto call.
func (t *BatchTrace) Output() []float64 { return t.acts[len(t.acts)-1] }

// Slice returns a view of rows [r0, r1) sharing t's storage: the gradient
// shards of a worker-split backward pass each backpropagate through their
// own contiguous row range of one full-batch trace. Views must be built
// with the layer widths of the MLP the trace was made for, so Slice derives
// them from the parent's buffers and t.rows.
func (t *BatchTrace) Slice(r0, r1 int) *BatchTrace {
	v := &BatchTrace{rows: r1 - r0, acts: make([][]float64, len(t.acts))}
	for i, act := range t.acts {
		w := len(act) / t.rows
		v.acts[i] = act[r0*w : r1*w]
	}
	return v
}

// ForwardBatchInto runs batched inference over the rows×in matrix x using
// s's buffers and returns the rows×out output matrix, which aliases the
// scratch and is valid until the next use of s. rows must not exceed the
// scratch capacity.
func (m *MLP) ForwardBatchInto(x []float64, rows int, s *BatchScratch) []float64 {
	cur := x
	useA := true
	for _, l := range m.Layers {
		next := s.b[:rows*l.Out]
		if useA {
			next = s.a[:rows*l.Out]
		}
		useA = !useA
		MatMulT(next, cur, l.W, rows, l.In, l.Out)
		AddBiasRows(next, l.B, rows, l.Out)
		l.Act.applyRows(next)
		cur = next
	}
	return cur
}

// ForwardBatchTraceInto runs batched inference over the rows×in matrix x,
// recording every layer's activation matrix into tr (the input is copied,
// so tr never aliases x). Returns tr.
func (m *MLP) ForwardBatchTraceInto(x []float64, rows int, tr *BatchTrace) *BatchTrace {
	in := m.Layers[0].In
	copy(tr.acts[0][:rows*in], x[:rows*in])
	cur := tr.acts[0][:rows*in]
	for li, l := range m.Layers {
		next := tr.acts[li+1][:rows*l.Out]
		MatMulT(next, cur, l.W, rows, l.In, l.Out)
		AddBiasRows(next, l.B, rows, l.Out)
		l.Act.applyRows(next)
		cur = next
	}
	return tr
}

// BackwardBatchInto accumulates parameter gradients into g for the traced
// batched pass over rows samples, given the rows×out matrix dOut =
// dLoss/dOutput, and returns the rows×in input-gradient matrix (aliasing
// the scratch, valid until the next use of s). The per-parameter result
// equals summing the per-sample Backward gradients over the rows (up to
// floating-point reassociation).
func (m *MLP) BackwardBatchInto(tr *BatchTrace, rows int, dOut []float64, g *Grads, s *BatchScratch) []float64 {
	return m.backwardBatch(tr, rows, dOut, g, s, false, true)
}

// BackwardBatchParams overwrites g with the parameter gradients of the
// traced batched pass, skipping both the caller-side Grads.Zero an
// accumulating backward would require and the layer-0 input-gradient
// product nobody reads. It is the cheap path for gradient shards that own
// their accumulator outright (the TD3 critic and actor updates).
func (m *MLP) BackwardBatchParams(tr *BatchTrace, rows int, dOut []float64, g *Grads, s *BatchScratch) {
	m.backwardBatch(tr, rows, dOut, g, s, true, false)
}

// BackwardBatchInput returns only the rows×in input-gradient matrix of the
// traced batched pass (aliasing the scratch), skipping every parameter
// product — the deterministic-policy-gradient step needs dQ/dAction but
// discards the critic's own gradients.
func (m *MLP) BackwardBatchInput(tr *BatchTrace, rows int, dOut []float64, s *BatchScratch) []float64 {
	return m.backwardBatch(tr, rows, dOut, nil, s, false, true)
}

// backwardBatch is the shared batched backward pass. g == nil skips the
// parameter products entirely; set overwrites g instead of accumulating;
// needInput == false stops before the layer-0 input-gradient product (the
// inter-layer ones always run — they carry the recursion).
func (m *MLP) backwardBatch(tr *BatchTrace, rows int, dOut []float64, g *Grads, s *BatchScratch, set, needInput bool) []float64 {
	last := m.Layers[len(m.Layers)-1]
	delta := s.a[:rows*last.Out]
	copy(delta, dOut[:rows*last.Out])
	useA := false // delta occupies a; the first input-gradient buffer is b
	for li := len(m.Layers) - 1; li >= 0; li-- {
		l := m.Layers[li]
		in := tr.acts[li][:rows*l.In]
		out := tr.acts[li+1][:rows*l.Out]
		l.Act.mulDerivRows(delta, out)
		if g != nil {
			// Parameter gradients: dW[out×in] (+)= deltaᵀ·in, db column sums.
			if set {
				MatMulTSet(g.W[li], delta, in, rows, l.Out, l.In)
				ColSumSet(g.B[li], delta, rows, l.Out)
			} else {
				MatMulTAcc(g.W[li], delta, in, rows, l.Out, l.In)
				ColSumAcc(g.B[li], delta, rows, l.Out)
			}
		}
		if li == 0 && !needInput {
			return nil
		}
		// Input gradients for the next (previous) layer: dIn = delta·W.
		next := s.b[:rows*l.In]
		if useA {
			next = s.a[:rows*l.In]
		}
		useA = !useA
		MatMul(next, delta, l.W, rows, l.Out, l.In)
		delta = next
	}
	return delta
}
