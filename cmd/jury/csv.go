package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
)

// writeFlowSeriesCSV writes all flows' recorded series as tidy CSV, so
// `jury sim -csv` runs can be re-plotted with external tooling:
// flow,t_seconds,throughput_bps,send_rate_bps,avg_rtt_ms,loss_rate,cwnd,pacing_bps.
func writeFlowSeriesCSV[F metrics.FlowSeries](w io.Writer, flows []F) error {
	cw := csv.NewWriter(w)
	header := []string{"flow", "t_seconds", "throughput_bps", "send_rate_bps", "avg_rtt_ms", "loss_rate", "cwnd", "pacing_bps"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, f := range flows {
		for _, p := range f.Series() {
			rec := []string{
				f.Name(),
				fmt.Sprintf("%.3f", p.T.Seconds()),
				fmt.Sprintf("%.0f", p.ThroughputBps),
				fmt.Sprintf("%.0f", p.SendRateBps),
				fmt.Sprintf("%.3f", float64(p.AvgRTT)/float64(time.Millisecond)),
				fmt.Sprintf("%.5f", p.LossRate),
				fmt.Sprintf("%.2f", p.Cwnd),
				fmt.Sprintf("%.0f", p.PacingBps),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
