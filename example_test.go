package jury_test

import (
	"fmt"
	"time"

	jury "repro"
	"repro/internal/metrics"
)

// Run a single Jury flow over an emulated 100 Mbps / 30 ms bottleneck and
// watch the controller's internals — the decision range (μ, δ), the
// occupancy estimate and the post-processed action — while throughput climbs
// toward capacity over a shallow queue.
func ExampleNewController() {
	net := jury.NewNetwork(jury.NetworkConfig{Seed: 1})
	link := net.AddLink(jury.LinkConfig{
		Rate:        100e6,                 // 100 Mbit/s
		Delay:       15 * time.Millisecond, // 30 ms RTT
		BufferBytes: 750_000,               // 2 BDP
	})

	var ctrl *jury.Controller
	flow := net.AddFlow(jury.FlowConfig{
		Name: "quickstart",
		Path: []*jury.Link{link},
		CC: func() jury.CC {
			ctrl = jury.NewController(1)
			return ctrl
		},
	})

	fmt.Println("t(s)  thr(Mbps)  rtt(ms)  occupancy     mu   delta  action")
	for s := 2; s <= 30; s += 2 {
		net.Run(time.Duration(s) * time.Second)
		st := flow.Stats()
		mu, delta := ctrl.LastRange()
		fmt.Printf("%4d  %9.1f  %7.1f  %9.2f  %5.2f  %5.2f  %6.2f\n",
			s, st.AvgThroughputBps/1e6, float64(st.AvgRTT)/1e6,
			ctrl.Occupancy(), mu, delta, ctrl.LastAction())
	}

	st := flow.Stats()
	fmt.Printf("final: %.1f Mbps of 100, min RTT %v, loss %.3f%%\n",
		st.AvgThroughputBps/1e6, st.MinRTT, st.LossRate*100)
	fmt.Printf("queuing delay at steady state: %.1f ms (base RTT 30 ms)\n",
		float64(st.AvgRTT-flow.BaseRTT())/1e6)
	// Output:
	// t(s)  thr(Mbps)  rtt(ms)  occupancy     mu   delta  action
	//    2        8.0     30.1       0.05   0.50   0.50    0.95
	//    4       24.5     30.2       0.04   0.50   0.50    0.96
	//    6       49.3     36.6       1.00   0.50   0.50    0.00
	//    8       62.0     39.0       1.00   0.50   0.50    0.00
	//   10       69.6     38.2       0.99   0.50   0.50   -1.00
	//   12       74.6     37.2       1.00   0.50   0.50    0.00
	//   14       78.0     36.6       0.66   0.50   0.50    0.34
	//   16       80.7     37.4       1.00   0.50   0.50    0.00
	//   18       82.8     36.9       1.00   0.50   0.50    0.00
	//   20       84.5     36.6       1.00   0.50   0.50   -1.00
	//   22       85.9     36.6       1.00   0.50   0.50   -1.00
	//   24       87.1     36.5       0.99   0.50   0.50    0.01
	//   26       88.0     36.3       1.00   0.50   0.50   -1.00
	//   28       88.9     36.2       1.00   0.50   0.50    1.00
	//   30       89.6     36.2       1.00   0.50   0.50    0.00
	// final: 89.6 Mbps of 100, min RTT 30.12ms, loss 0.000%
	// queuing delay at steady state: 6.2 ms (base RTT 30 ms)
}

// One Jury pipeline serves applications with different objectives — a
// throughput-hungry bulk transfer and a latency-sensitive call — by
// conditioning the policy on a preference vector (the MOCC-style extension
// of §3.3), while the occupancy post-processing keeps fairness identical for
// every preference.
func ExampleNewControllerWithPreference() {
	run := func(name string, pref jury.Preference) {
		net := jury.NewNetwork(jury.NetworkConfig{Seed: 5})
		link := net.AddLink(jury.LinkConfig{
			Rate:        40e6,
			Delay:       15 * time.Millisecond,
			BufferBytes: 600_000, // 4 BDP: room for latency differences to show
		})
		flow := net.AddFlow(jury.FlowConfig{Name: name, Path: []*jury.Link{link},
			CC: func() jury.CC {
				cfg := jury.DefaultConfig()
				cfg.Seed = 5
				return jury.NewControllerWithPreference(cfg, pref)
			}})
		net.Run(60 * time.Second)
		p := pref.Normalize()
		fmt.Printf("%-13s (w_thr %.2f, w_delay %.2f, w_loss %.2f): util %.3f, queue %5.1f ms\n",
			name, p.Throughput, p.Delay, p.Loss, link.Utilization(60*time.Second),
			metrics.MeanQueuingDelayMS(flow, 30*time.Second, 60*time.Second))
	}
	run("bulk-transfer", jury.Preference{Throughput: 0.7, Delay: 0.2, Loss: 0.1})
	run("balanced", jury.DefaultPreference())
	run("interactive", jury.Preference{Throughput: 0.15, Delay: 0.75, Loss: 0.1})
	// Output:
	// bulk-transfer (w_thr 0.70, w_delay 0.20, w_loss 0.10): util 0.978, queue   9.5 ms
	// balanced      (w_thr 0.33, w_delay 0.33, w_loss 0.33): util 0.974, queue   6.2 ms
	// interactive   (w_thr 0.15, w_delay 0.75, w_loss 0.10): util 0.955, queue   3.7 ms
}
