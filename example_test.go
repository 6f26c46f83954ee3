package jury_test

import (
	"fmt"
	"time"

	jury "repro"
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

	ctrl := jury.NewController(1)
	flow := net.AddFlow(jury.FlowConfig{
		Name: "quickstart",
		Path: []*jury.Link{link},
		Alg:  ctrl,
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
