package agentrpc

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/simcore"
)

// BenchmarkServeBatch measures the daemon's execution core — the batched
// GEMM serving path — at the batch sizes that matter: 1 (a lone flow, pure
// per-request overhead), 64 (the default MaxBatch) and 1024 (a million-flow
// daemon under full coalescing). The figure of merit is decisions/sec; the
// batch sizes show how far one policy execution amortizes. It calls execute
// directly, so it sees nothing of the batch loop or the socket path —
// BenchmarkServeLoopback covers those.
func BenchmarkServeBatch(b *testing.B) {
	const dim = 16
	net := nn.NewMLP(simcore.NewRNG(7), []int{dim, 32, 32, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	for _, rows := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", rows), func(b *testing.B) {
			s := &Server{}
			s.pv.Store(newPolicyVersion(1, &core.NNPolicy{Net: net}, nil))
			batch := make([]*pending, rows)
			for i := range batch {
				p := newPending()
				p.state = make([]float64, dim)
				for j := range p.state {
					p.state[j] = 0.01*float64(i%17) + 0.001*float64(j)
				}
				batch[i] = p
			}
			xbuf := make([]float64, 0, rows*dim)
			mus := make([]float64, rows)
			deltas := make([]float64, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xbuf = s.execute(batch, xbuf, mus, deltas)
				for _, p := range batch {
					<-p.done // finish() hands each decision back via done
				}
			}
			b.StopTimer()
			for i, p := range batch {
				if p.status != statusOK {
					b.Fatalf("row %d finished with status %d", i, p.status)
				}
			}
			if got := s.batchedRequests.Load(); got != int64(b.N*rows) {
				b.Fatalf("batched %d requests, want %d", got, b.N*rows)
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "decisions/sec")
		})
	}
}

// BenchmarkServeLoopback measures one served decision end to end: a single
// closed-loop Client over loopback TCP against a 16-128-128-2 actor — wire
// framing, both socket paths, the batcher hand-off and a one-row forward
// pass. ns/op is the round trip; any per-decision wait creeping back into
// the batch loop shows up here as a multiple, not a percentage.
func BenchmarkServeLoopback(b *testing.B) {
	const dim = 16
	net := nn.NewMLP(simcore.NewRNG(7), []int{dim, 128, 128, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	srv, err := Serve("127.0.0.1:0", &core.NNPolicy{Net: net})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), core.AIMDPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	state := make([]float64, dim)
	for j := range state {
		state[j] = 0.01 * float64(j+1)
	}
	for i := 0; i < 100; i++ { // grow every scratch buffer on both sides
		cl.Decide(state)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state[0] = 0.001 * float64(i%97)
		cl.Decide(state)
	}
	b.StopTimer()
	if fb := cl.FallbackDecisions(); fb != 0 {
		b.Fatalf("%d decisions fell back", fb)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
}
