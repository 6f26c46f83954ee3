package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/simcore"
)

// TestDecideBatchMatchesScalar: the batched serving path must agree with
// per-request inference bit for bit at every batch size, including sizes
// above every scratch the policy holds, and a scalar decision allocates
// nothing.
// Besides a small net it runs the Table 2 actor (16-128-128-2) at batch
// sizes that leave 1, 2 and 3 rows after the 4-row panels, so every count
// of rows the one-row kernel takes is compared against a one-row Decide.
func TestDecideBatchMatchesScalar(t *testing.T) {
	nets := []struct {
		net  *nn.MLP
		rows []int
	}{
		{nn.NewMLP(simcore.NewRNG(3), []int{12, 24, 24, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh}), []int{1, 7, 64, 200}},
		{nn.NewMLP(simcore.NewRNG(5), []int{16, 128, 128, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh}), []int{1, 2, 3, 5, 6, 7, 64, 200}},
	}
	for _, c := range nets {
		dim := c.net.InputDim()
		batched := &NNPolicy{Net: c.net}
		scalar := &NNPolicy{Net: c.net}
		for _, rows := range c.rows {
			x := make([]float64, rows*dim)
			for i := range x {
				x[i] = math.Sin(float64(i)) * 0.3
			}
			mus := make([]float64, rows)
			deltas := make([]float64, rows)
			batched.DecideBatch(x, rows, mus, deltas)
			for r := 0; r < rows; r++ {
				mu, delta := scalar.Decide(x[r*dim : (r+1)*dim])
				if math.Float64bits(mus[r]) != math.Float64bits(mu) || math.Float64bits(deltas[r]) != math.Float64bits(delta) {
					t.Fatalf("%d-wide net rows=%d row=%d: batch (%v, %v) != scalar (%v, %v)", dim, rows, r, mus[r], deltas[r], mu, delta)
				}
				if delta < 0 || delta > 1 || mu < -1 || mu > 1 {
					t.Fatalf("decision out of range: (%v, %v)", mu, delta)
				}
			}
		}
		if got := batched.InputDim(); got != dim {
			t.Fatalf("InputDim = %d, want %d", got, dim)
		}
		state := make([]float64, dim)
		if allocs := testing.AllocsPerRun(100, func() { scalar.Decide(state) }); allocs != 0 {
			t.Fatalf("%d-wide net: Decide allocates %v times per call, want 0", dim, allocs)
		}
	}

	// A poisoned state: (+Inf, −Inf) through all-positive first-layer weights
	// is Inf−Inf, x86's default NaN, whose sign bit is set. Decide returns
	// NaN, so the batched path must as well — a finite answer there would
	// slip past the daemon's non-finite rollback.
	poison := nn.NewMLP(simcore.NewRNG(4), []int{2, 4, 2}, []nn.Activation{nn.ReLU, nn.Tanh})
	for i := range poison.Layers[0].W {
		poison.Layers[0].W[i] = 1
	}
	state := []float64{math.Inf(1), math.Inf(-1)}
	mu, delta := (&NNPolicy{Net: poison}).Decide(state)
	mus, deltas := make([]float64, 1), make([]float64, 1)
	(&NNPolicy{Net: poison}).DecideBatch(state, 1, mus, deltas)
	if !math.IsNaN(mu) || !math.IsNaN(mus[0]) || !math.IsNaN(delta) || !math.IsNaN(deltas[0]) {
		t.Fatalf("poisoned state: Decide (%v, %v), DecideBatch (%v, %v), want NaN from both", mu, delta, mus[0], deltas[0])
	}
}

// TestNNPolicyConcurrentDecide: the daemon runs every connection's
// decision on its own goroutine against one shared NNPolicy. 8 goroutines ×
// 200 decisions through one policy on the Table 2 actor (16-128-128-2) must
// each be bitwise equal to a serial one-row DecideBatch on another policy
// over the same network.
func TestNNPolicyConcurrentDecide(t *testing.T) {
	const workers, n = 8, 200
	net := nn.NewMLP(simcore.NewRNG(5), []int{16, 128, 128, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	dim := net.InputDim()
	states := make([]float64, workers*n*dim)
	rng := simcore.NewRNG(11)
	for i := range states {
		states[i] = rng.Range(-1, 1)
	}
	shared := &NNPolicy{Net: net}
	got := make([][2]float64, workers*n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * n; i < (w+1)*n; i++ {
				got[i][0], got[i][1] = shared.Decide(states[i*dim : (i+1)*dim])
			}
		}()
	}
	wg.Wait()

	serial := &NNPolicy{Net: net}
	var mu, delta [1]float64
	for i := range got {
		serial.DecideBatch(states[i*dim:(i+1)*dim], 1, mu[:], delta[:])
		if math.Float64bits(got[i][0]) != math.Float64bits(mu[0]) || math.Float64bits(got[i][1]) != math.Float64bits(delta[0]) {
			t.Fatalf("decision %d (worker %d): concurrent (%v, %v) != serial (%v, %v)", i, i/n, got[i][0], got[i][1], mu[0], delta[0])
		}
	}
}

// TestAIMDPolicy: net loss across the window backs off, anything else
// probes, and the decision radius is always zero (no differentiation for a
// blind flow).
func TestAIMDPolicy(t *testing.T) {
	cases := []struct {
		state  []float64
		wantMu float64
	}{
		{nil, 1},
		{[]float64{0, 0, 0, 0}, 1},
		{[]float64{0.5, 0.01, -0.2, 0.02}, 1},  // net loss positive: probe
		{[]float64{0.5, -0.04, 0.1, 0.01}, -1}, // net drop: back off
	}
	for i, c := range cases {
		mu, delta := (AIMDPolicy{}).Decide(c.state)
		if mu != c.wantMu || delta != 0 {
			t.Fatalf("case %d: (%v, %v), want (%v, 0)", i, mu, delta, c.wantMu)
		}
	}
}

func TestPolicyFromActorFile(t *testing.T) {
	dir := t.TempDir()
	dim := DefaultConfig().StateDim()
	actor := nn.NewMLP(simcore.NewRNG(5), []int{dim, 12, 2}, []nn.Activation{nn.ReLU, nn.Tanh})
	data, err := json.Marshal(actor)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "actor.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := PolicyFromActorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.InputDim() != dim {
		t.Fatalf("loaded actor dim %d", p.InputDim())
	}
	if mu, delta := p.Decide(make([]float64, dim)); math.IsNaN(mu) || delta < 0 || delta > 1 {
		t.Fatalf("loaded policy answered (%v, %v)", mu, delta)
	}
	if _, err := PolicyFromActorFile(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing actor accepted")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PolicyFromActorFile(path); err == nil {
		t.Fatal("corrupt actor accepted")
	}
	for _, sizes := range [][]int{{3, 4, 1}, {dim, 4, 3}, {dim - 2, 4, 2}} {
		net := nn.NewMLP(simcore.NewRNG(5), sizes, []nn.Activation{nn.ReLU, nn.Tanh})
		data, err := json.Marshal(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("maps %d inputs to %d outputs; a Jury actor maps %d to 2", sizes[0], sizes[2], dim)
		if _, err := PolicyFromActorFile(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%v actor: err %v, want %q", sizes, err, want)
		}
	}
}
