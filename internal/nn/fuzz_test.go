package nn

import (
	"encoding/json"
	"testing"

	"repro/internal/simcore"
)

// FuzzActorJSON feeds arbitrary bytes to the network decoder that loads
// `jury train -out` actors. Every network it accepts must run inference on
// an InputDim()-wide zero vector without panicking, so a shape the decoder
// lets through can never crash the process that serves it.
func FuzzActorJSON(f *testing.F) {
	actor, err := json.Marshal(NewMLP(simcore.NewRNG(1), []int{4, 8, 2}, []Activation{ReLU, Tanh}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(actor)
	f.Add([]byte(`{"layers":[{"in":2,"out":1,"act":3,"w":[1,2],"b":[0]}]}`))
	f.Add([]byte(`{"layers":[{"in":4611686018427387904,"out":4,"act":0,"w":[],"b":[0,0,0,0]}]}`))
	f.Add([]byte(`{"layers":[{"in":1,"out":2,"act":1,"w":[1,2],"b":[0,0]},{"in":2,"out":1,"act":2,"w":[1,1],"b":[0]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m MLP
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		out := m.ForwardInto(make([]float64, m.InputDim()), NewScratch(&m))
		if len(out) != m.OutputDim() {
			t.Fatalf("output width %d, want %d", len(out), m.OutputDim())
		}
	})
}
