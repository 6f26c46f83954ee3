package exp

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// MultiBottleneckResult reports the parking-lot fairness experiment of
// §5.1: a long flow crossing two bottlenecks competes with one cross flow
// on each. Max-min fairness gives every flow half of each link.
type MultiBottleneckResult struct {
	LongMbps   float64 // flow crossing both links
	Cross1Mbps float64 // flow on link 1 only
	Cross2Mbps float64 // flow on link 2 only
	// Link1Jain/Link2Jain are the fairness indices at each bottleneck
	// between the long flow and the local cross flow.
	Link1Jain float64
	Link2Jain float64
}

// MultiBottleneckOptions parameterizes the parking-lot run.
type MultiBottleneckOptions struct {
	Lifetime time.Duration
	Seed     uint64
}

func (o *MultiBottleneckOptions) defaults() {
	if o.Lifetime == 0 {
		o.Lifetime = 120 * time.Second
	}
}

// RunMultiBottleneck runs the parking-lot topology with Jury on all flows
// through the run pipeline. It stays at one shard: the two links could be
// cut, but a drop on a foreign shard changes the loss-detection delay (see
// netsim.RunSharded), so sharding this run would change its results.
func RunMultiBottleneck(o MultiBottleneckOptions) (*MultiBottleneckResult, error) {
	o.defaults()
	const rate = 80e6 // per link
	return execute(job[*MultiBottleneckResult]{
		name:    "multi-bottleneck",
		seed:    o.Seed,
		horizon: o.Lifetime,
		shards:  1,
		build: func() (*netsim.Network, error) {
			n := netsim.New(netsim.Config{Seed: o.Seed})
			mk := func(delay time.Duration) *netsim.Link {
				return n.AddLink(netsim.LinkConfig{
					Rate: rate, Delay: delay,
					BufferBytes: int(1.5 * rate / 8 * 0.030),
				})
			}
			l1 := mk(8 * time.Millisecond)
			l2 := mk(7 * time.Millisecond)
			addFlow := func(name string, path []*netsim.Link, seed uint64) {
				n.AddFlow(netsim.FlowConfig{
					Name: name, Path: path,
					Alg: core.NewDefault(seed),
				})
			}
			addFlow("long", []*netsim.Link{l1, l2}, 1)
			addFlow("cross1", []*netsim.Link{l1}, 2)
			addFlow("cross2", []*netsim.Link{l2}, 3)
			return n, nil
		},
		shape: func(n *netsim.Network, _ outcome) *MultiBottleneckResult {
			f := n.Flows()
			from := o.Lifetime / 2
			res := &MultiBottleneckResult{
				LongMbps:   metrics.MeanThroughput(f[0], from, o.Lifetime) / 1e6,
				Cross1Mbps: metrics.MeanThroughput(f[1], from, o.Lifetime) / 1e6,
				Cross2Mbps: metrics.MeanThroughput(f[2], from, o.Lifetime) / 1e6,
			}
			res.Link1Jain = metrics.JainIndex([]float64{res.LongMbps, res.Cross1Mbps})
			res.Link2Jain = metrics.JainIndex([]float64{res.LongMbps, res.Cross2Mbps})
			return res
		},
	})
}
