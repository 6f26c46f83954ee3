package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/simcore"
)

// TestDecideBatchMatchesScalar: the batched serving path must agree with
// per-request inference within float tolerance at every batch size,
// including sizes above the lazily grown scratch.
func TestDecideBatchMatchesScalar(t *testing.T) {
	const dim = 12
	net := nn.NewMLP(simcore.NewRNG(3), []int{dim, 24, 24, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	batched := &NNPolicy{Net: net}
	scalar := &NNPolicy{Net: net}
	for _, rows := range []int{1, 7, 64, 200} {
		x := make([]float64, rows*dim)
		for i := range x {
			x[i] = math.Sin(float64(i)) * 0.3
		}
		mus := make([]float64, rows)
		deltas := make([]float64, rows)
		batched.DecideBatch(x, rows, mus, deltas)
		for r := 0; r < rows; r++ {
			mu, delta := scalar.Decide(x[r*dim : (r+1)*dim])
			if math.Abs(mus[r]-mu) > 1e-9 || math.Abs(deltas[r]-delta) > 1e-9 {
				t.Fatalf("rows=%d row=%d: batch (%v, %v) != scalar (%v, %v)", rows, r, mus[r], deltas[r], mu, delta)
			}
			if delta < 0 || delta > 1 || mu < -1 || mu > 1 {
				t.Fatalf("decision out of range: (%v, %v)", mu, delta)
			}
		}
	}
	if got := batched.InputDim(); got != dim {
		t.Fatalf("InputDim = %d, want %d", got, dim)
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

func TestPolicyFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	dim := DefaultConfig().StateDim()
	actor := nn.NewMLP(simcore.NewRNG(5), []int{dim, 16, 2}, []nn.Activation{nn.ReLU, nn.Tanh})
	path := filepath.Join(dir, "ck.json")
	if err := rl.SaveCheckpoint(path, &rl.Checkpoint{Actor: actor}); err != nil {
		t.Fatal(err)
	}
	p, err := PolicyFromCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.InputDim() != dim {
		t.Fatalf("loaded actor dim %d", p.InputDim())
	}
	mu, delta := p.Decide(make([]float64, dim))
	if math.IsNaN(mu) || delta < 0 || delta > 1 {
		t.Fatalf("loaded policy answered (%v, %v)", mu, delta)
	}

	// A checkpoint without an actor (e.g. a critics-only artifact from a
	// future format change) must be rejected with a clear error, and weights
	// that fail to parse must not load. (Non-finite weights cannot even be
	// encoded — json rejects NaN — so AllFinite is a second line of defense;
	// the runtime guard is covered by the daemon tests.)
	bad := filepath.Join(dir, "bad.json")
	if err := rl.SaveCheckpoint(bad, &rl.Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	if _, err := PolicyFromCheckpoint(bad); err == nil {
		t.Fatal("actor-less checkpoint accepted")
	}
	if _, err := PolicyFromCheckpoint(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
	critic := nn.NewMLP(simcore.NewRNG(5), []int{dim + 2, 16, 1}, []nn.Activation{nn.ReLU, nn.Linear})
	if err := rl.SaveCheckpoint(bad, &rl.Checkpoint{Actor: critic}); err != nil {
		t.Fatal(err)
	}
	if _, err := PolicyFromCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "a Jury actor maps") {
		t.Fatalf("checkpoint with a %d→1 actor: err %v, want a width error", dim+2, err)
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
