package nn

import "math"

// AllFinite reports whether every weight and bias of the network is finite.
func (m *MLP) AllFinite() bool {
	for _, l := range m.Layers {
		if !allFinite(l.W) || !allFinite(l.B) {
			return false
		}
	}
	return true
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
