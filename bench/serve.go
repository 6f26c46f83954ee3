package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/simcore"
)

// serveSize is how many closed-loop decisions each client makes per rep.
type serveSize struct{ warm, timed int }

func newServeSize(c *ctx) serveSize {
	if c.smoke {
		return serveSize{warm: 40, timed: 70}
	}
	return serveSize{warm: 2000, timed: 2500}
}

// actorNet is the 16-128-128-2 actor rl.NewTD3 builds for Jury's state and
// action dimensions (ReLU hidden layers, tanh output), freshly initialised
// from the seed.
func actorNet(seed uint64) *nn.MLP {
	dim := core.DefaultConfig().StateDim()
	return nn.NewMLP(simcore.NewRNG(seed), []int{dim, 128, 128, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
}

// batchShim delegates the serving policy's scalar and batched paths; it
// counts batch executions and rows and times one execution in 64.
type batchShim struct {
	inner *core.NNPolicy
	tr    *tracer
	root  int
	execs atomic.Int64
}

func (s *batchShim) Decide(state []float64) (float64, float64) { return s.inner.Decide(state) }
func (s *batchShim) InputDim() int                             { return s.inner.InputDim() }

func (s *batchShim) DecideBatch(states []float64, rows int, mu, delta []float64) {
	if s.execs.Add(1)&63 != 0 {
		s.inner.DecideBatch(states, rows, mu, delta)
		return
	}
	id := s.tr.begin("core.decide_batch", s.root)
	s.inner.DecideBatch(states, rows, mu, delta)
	s.tr.end(id)
}

// serveRep starts the inference daemon with juryserve's defaults on a
// loopback port, connects one client per processor, warms them up (all of
// that is set-up), then has every client make a fixed number of decisions
// back to back: a closed loop with one decision in flight per client, which
// is exactly what a daemon-backed jurysim flow does. Every answer is then
// compared bit for bit with the same network evaluated locally.
func serveRep(c *ctx, tr *tracer) (*rep, error) {
	size := newServeSize(c)
	clients := runtime.GOMAXPROCS(0)
	dim := core.DefaultConfig().StateDim()
	r := &rep{fp: newFingerprint(), vals: map[string]float64{}, ops: int64(clients * size.timed)}

	// Inputs: each client's state stream, from the seed.
	states := make([][]float64, clients)
	for ci := range states {
		rng := simcore.NewRNG(c.seed*1000 + uint64(ci) + 1)
		states[ci] = make([]float64, (size.warm+size.timed)*dim)
		for i := range states[ci] {
			states[ci][i] = rng.Range(-1, 1)
		}
	}

	root := tr.begin("serve_socket.rep", 0)
	t0 := time.Now()
	actor := actorNet(c.seed)
	var served agentrpc.Policy = &core.NNPolicy{Net: actor}
	if tr != nil {
		served = &batchShim{inner: served.(*core.NNPolicy), tr: tr, root: root}
	}
	srv, err := agentrpc.ServeConfig("127.0.0.1:0", served, agentrpc.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl := make([]*agentrpc.Client, clients)
	var dials []float64
	for ci := range cl {
		d0 := time.Now()
		if cl[ci], err = agentrpc.Dial(srv.Addr(), core.AIMDPolicy{}); err != nil {
			return nil, err
		}
		defer cl[ci].Close()
		dials = append(dials, float64(time.Since(d0))/1e6)
	}
	inParallel(clients, func(ci int) {
		for i := 0; i < size.warm; i++ {
			cl[ci].Decide(states[ci][i*dim : (i+1)*dim])
		}
	})
	r.setup = time.Since(t0)

	type answer struct{ mu, delta float64 }
	answers := make([][]answer, clients)
	lats := make([][]float64, clients)
	for ci := range answers {
		answers[ci] = make([]answer, size.timed)
		lats[ci] = make([]float64, size.timed)
	}
	r.wall = timeIt(func() {
		inParallel(clients, func(ci int) {
			st := states[ci][size.warm*dim:]
			for i := 0; i < size.timed; i++ {
				var id int
				if i&63 == 0 {
					id = tr.begin("agentrpc.decide", root)
				}
				d0 := time.Now()
				mu, delta := cl[ci].Decide(st[i*dim : (i+1)*dim])
				lats[ci][i] = float64(time.Since(d0)) / 1e3
				tr.end(id)
				answers[ci][i] = answer{mu, delta}
			}
		})
	})
	tr.end(root)

	var fallbacks int64
	for _, k := range cl {
		fallbacks += k.FallbackDecisions()
		k.Close()
	}
	batches, batched := srv.Batches(), srv.BatchedRequests()
	shed, timeouts := srv.Shed(), srv.Timeouts()
	srv.Close()

	// The daemon answers through NNPolicy.DecideBatch, whose kernels give a
	// row the same bits whatever else is in the batch (but not the bits of
	// the scalar Decide, which sums in another order), so the reference is
	// DecideBatch on the one state. A fallback, BUSY, shed or ERR answer
	// comes from the client's AIMD fallback and cannot equal it: one
	// comparison covers every way a decision can fail.
	local := &core.NNPolicy{Net: actor}
	var wrong int64
	var mu, delta [1]float64
	for ci := range answers {
		st := states[ci][size.warm*dim:]
		for i, a := range answers[ci] {
			local.DecideBatch(st[i*dim:(i+1)*dim], 1, mu[:], delta[:])
			if math.Float64bits(mu[0]) != math.Float64bits(a.mu) || math.Float64bits(delta[0]) != math.Float64bits(a.delta) {
				wrong++
			}
			r.fp.f64(a.mu)
			r.fp.f64(a.delta)
		}
		r.lat = append(r.lat, lats[ci]...)
	}
	if wrong > 0 {
		r.failN(wrong, "%d remote decisions differ from the local policy (%d fallbacks, %d shed, %d timeouts)", wrong, fallbacks, shed, timeouts)
	}

	r.vals["decisions_per_s"] = float64(r.ops) / r.wall.Seconds()
	r.vals["agentrpc.fallbacks"] = float64(fallbacks)
	r.vals["agentrpc.shed"] = float64(shed)
	r.vals["agentrpc.timeouts"] = float64(timeouts)
	r.vals["agentrpc.dial_ms"] = median(dials)
	if batches > 0 {
		r.vals["agentrpc.batch_fill"] = float64(batched) / float64(batches)
	}
	return r, nil
}

// inParallel runs fn(0..n-1) on n goroutines and waits for all of them.
func inParallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// serveProbes splits a served decision's round trip into what the wire
// costs with no daemon behind it, what the network's forward pass costs, and
// the rest — time spent queued in the batcher waiting for BatchDelay.
func serveProbes(c *ctx, tr *tracer, base, traced *rep, out *layerOut) error {
	floor, err := probeWireFloor(c)
	if err != nil {
		return err
	}
	out.set("agentrpc.wire_floor_us", floor)

	actor := actorNet(c.seed)
	dim, rows := actor.InputDim(), 64
	rng := simcore.NewRNG(c.seed)
	x := make([]float64, rows*dim)
	for i := range x {
		x[i] = rng.Range(-1, 1)
	}
	iters := 20_000
	if c.smoke {
		iters = 400
	}
	scratch := nn.NewScratch(actor)
	fwd := nsPerCall(iters, func(i int) { actor.ForwardInto(x[(i%rows)*dim:(i%rows+1)*dim], scratch) })
	out.set("nn.forward_ns", fwd)
	// A batch of 64 is what the daemon's MaxBatch allows, but nproc
	// closed-loop clients never queue more than nproc requests: this figure
	// is on file to show what serve_socket does not reach.
	pol := &core.NNPolicy{Net: actor}
	mu, delta := make([]float64, rows), make([]float64, rows)
	out.set("core.decide_batch_ns_per_row", nsPerCall(iters/rows, func(int) { pol.DecideBatch(x, rows, mu, delta) })/float64(rows))

	sorted := append([]float64(nil), base.lat...)
	sort.Float64s(sorted)
	p50 := percentile(sorted, 50)
	wait := p50 - floor - fwd/1e3
	out.set("agentrpc.batcher_wait_us", wait)
	out.set("agentrpc.batcher_wait_share", wait/p50)
	return nil
}

// probeWireFloor measures the round trip of frames the size of a decide
// request and its response over plain loopback TCP, with an echo peer that
// does no work: the latency floor no daemon can beat. It uses as many
// concurrent closed-loop connections as the workload and reports the
// median in us.
func probeWireFloor(c *ctx) (float64, error) {
	reqSize := 4 + 8*core.DefaultConfig().StateDim() // u32 count + f64 state
	const respSize = 1 + 8 + 8                       // status + mu + delta
	trips := 4000
	if c.smoke {
		trips = 100
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var peers sync.WaitGroup
	peers.Add(1)
	go func() {
		defer peers.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			peers.Add(1)
			go func() {
				defer peers.Done()
				defer conn.Close()
				req, resp := make([]byte, reqSize), make([]byte, respSize)
				for {
					if _, err := io.ReadFull(conn, req); err != nil {
						return // client hung up
					}
					if _, err := conn.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()

	clients := runtime.GOMAXPROCS(0)
	lats := make([][]float64, clients)
	errs := make([]error, clients)
	inParallel(clients, func(ci int) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errs[ci] = err
			return
		}
		defer conn.Close()
		req, resp := make([]byte, reqSize), make([]byte, respSize)
		for i := 0; i < trips+trips/10; i++ {
			t0 := time.Now()
			if _, err := conn.Write(req); err != nil {
				errs[ci] = err
				return
			}
			if _, err := io.ReadFull(conn, resp); err != nil {
				errs[ci] = err
				return
			}
			if i >= trips/10 { // the first tenth warms the connection up
				lats[ci] = append(lats[ci], float64(time.Since(t0))/1e3)
			}
		}
	})
	ln.Close()
	peers.Wait()
	var all []float64
	for ci := range lats {
		if errs[ci] != nil {
			return 0, fmt.Errorf("wire-floor probe: %w", errs[ci])
		}
		all = append(all, lats[ci]...)
	}
	return median(all), nil
}
