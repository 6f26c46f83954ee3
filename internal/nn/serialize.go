package nn

import (
	"encoding/json"
	"fmt"
)

// layerJSON is the serialized form of one Dense layer.
type layerJSON struct {
	In  int        `json:"in"`
	Out int        `json:"out"`
	Act Activation `json:"act"`
	W   []float64  `json:"w"`
	B   []float64  `json:"b"`
}

// mlpJSON is the serialized form of an MLP.
type mlpJSON struct {
	Layers []layerJSON `json:"layers"`
}

// MarshalJSON implements json.Marshaler.
func (m *MLP) MarshalJSON() ([]byte, error) {
	out := mlpJSON{}
	for _, l := range m.Layers {
		out.Layers = append(out.Layers, layerJSON{In: l.In, Out: l.Out, Act: l.Act, W: l.W, B: l.B})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, validating shapes.
func (m *MLP) UnmarshalJSON(data []byte) error {
	var in mlpJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if len(in.Layers) == 0 {
		return fmt.Errorf("nn: empty network")
	}
	var layers []*Dense
	for i, l := range in.Layers {
		if l.In <= 0 || l.Out <= 0 || len(l.W) != l.In*l.Out || len(l.B) != l.Out {
			return fmt.Errorf("nn: layer %d has inconsistent shape (in=%d out=%d |w|=%d |b|=%d)",
				i, l.In, l.Out, len(l.W), len(l.B))
		}
		if i > 0 && l.In != in.Layers[i-1].Out {
			return fmt.Errorf("nn: layer %d input %d does not match previous output %d", i, l.In, in.Layers[i-1].Out)
		}
		if l.Act < Linear || l.Act > Sigmoid {
			return fmt.Errorf("nn: layer %d has unknown activation %d", i, int(l.Act))
		}
		layers = append(layers, &Dense{In: l.In, Out: l.Out, Act: l.Act, W: l.W, B: l.B})
	}
	m.Layers = layers
	return nil
}
