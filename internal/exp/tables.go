package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/rl"
)

// Tab1Rows renders Table 1 (the training-environment distribution) from the
// live configuration, so the printed table always matches what the training
// code actually samples.
func Tab1Rows() []string {
	d := core.DefaultTrainingDomain()
	return []string{
		fmt.Sprintf("Bandwidth   %0.0f-%0.0f Mbps", d.MinBandwidth/1e6, d.MaxBandwidth/1e6),
		fmt.Sprintf("Base RTT    %v-%v", d.MinRTT, d.MaxRTT),
		fmt.Sprintf("Buffer size %0.1f-%0.1f BDP", d.MinBufferBDP, d.MaxBufferBDP),
		fmt.Sprintf("Loss rate   %0.1f-%0.1f %%", d.MinLoss*100, d.MaxLoss*100),
		fmt.Sprintf("Flows       %d-%d", d.MinFlows, d.MaxFlows),
	}
}

// Tab2Rows renders Table 2 (training hyperparameters) from the live
// configuration: the controller's (core.DefaultConfig) and the learner's
// (rl.DefaultConfig, which core.TrainPolicy trains with).
func Tab2Rows() []string {
	c := core.DefaultConfig()
	l := rl.DefaultConfig(c.StateDim(), 2)
	return []string{
		fmt.Sprintf("control time interval        %v", c.Interval),
		fmt.Sprintf("actor learning rate (sigma)  %.0e", l.ActorLR),
		fmt.Sprintf("critic learning rate (eta)   %.0e", l.CriticLR),
		fmt.Sprintf("discount factor (gamma)      %g", l.Gamma),
		fmt.Sprintf("batch size                   %d", l.Batch),
		"model update interval        5 s (epoch-batched; see DESIGN.md)",
		fmt.Sprintf("action control coeff (alpha) %g", c.Alpha),
		fmt.Sprintf("RTT scale coeff (beta1)      %g", c.Beta1),
		fmt.Sprintf("loss scale coeff (beta2)     %g", c.Beta2),
	}
}

// FormatTable renders rows of columns with aligned widths (CLI output).
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// FmtMbps formats bits/second as Mbps.
func FmtMbps(bps float64) string { return fmt.Sprintf("%.1f", bps/1e6) }
