package exp

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rl"
)

// TestTab2RowsParseBackToConfig holds Table 2 to the live configuration:
// every printed value but the update interval's prose parses back to the
// field it names — σ, η, γ and the batch size to rl.DefaultConfig's (what
// core.TrainPolicy trains with), the control interval and α, β1, β2 to
// core.DefaultConfig's.
func TestTab2RowsParseBackToConfig(t *testing.T) {
	c := core.DefaultConfig()
	l := rl.DefaultConfig(c.StateDim(), 2)
	want := map[string]float64{
		"actor learning rate (sigma)":  l.ActorLR,
		"critic learning rate (eta)":   l.CriticLR,
		"discount factor (gamma)":      l.Gamma,
		"batch size":                   float64(l.Batch),
		"action control coeff (alpha)": c.Alpha,
		"RTT scale coeff (beta1)":      c.Beta1,
		"loss scale coeff (beta2)":     c.Beta2,
	}
	const valueCol = len("action control coeff (alpha) ")
	seen := 0
	for _, row := range Tab2Rows() {
		name, value := strings.TrimSpace(row[:valueCol]), row[valueCol:]
		switch name {
		case "control time interval":
			if d, err := time.ParseDuration(value); err != nil || d != c.Interval {
				t.Errorf("%q: %q parses to %v (%v), config has %v", name, value, d, err, c.Interval)
			}
			seen++
		case "model update interval":
		default:
			w, ok := want[name]
			if !ok {
				t.Errorf("row %q names no known field", row)
				continue
			}
			if v, err := strconv.ParseFloat(value, 64); err != nil || v != w {
				t.Errorf("%q: %q parses to %v (%v), config has %v", name, value, v, err, w)
			}
			seen++
		}
	}
	if seen != len(want)+1 {
		t.Errorf("checked %d rows, want %d", seen, len(want)+1)
	}
}
