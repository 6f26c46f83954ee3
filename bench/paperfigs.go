package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// figsOptions are the option structs cmd/juryexp builds for `-exp fig7`,
// `tab3`, `ablation` and `fig8` without -full; smoke shrinks every duration
// about fifty-fold.
type figsOptions struct {
	fig7 exp.Fig7Options
	tab3 exp.Tab3Options
	abl  exp.AblationOptions
	fig8 exp.Fig8Options
}

func newFigsOptions(c *ctx) figsOptions {
	o := figsOptions{
		fig7: exp.Fig7Options{Seed: c.seed, Stagger: 20 * time.Second, Lifetime: 60 * time.Second},
		tab3: exp.Tab3Options{Seed: c.seed},
		abl:  exp.AblationOptions{Seed: c.seed},
		fig8: exp.Fig8Options{Seed: c.seed, Stagger: 20 * time.Second, Lifetime: 100 * time.Second},
	}
	if c.smoke {
		o.fig7.Stagger, o.fig7.Lifetime = 400*time.Millisecond, 1200*time.Millisecond
		o.tab3.Repeats, o.tab3.Lifetime = 1, 2*time.Second
		o.abl.Stagger, o.abl.Lifetime = 400*time.Millisecond, 1200*time.Millisecond
		o.fig8.Stagger, o.fig8.Lifetime = 400*time.Millisecond, 2*time.Second
	}
	return o
}

// figsRep runs the four figure calls once, in juryexp's order. Traced, it
// runs them under an enabled telemetry hub (the repo's own counters are the
// layer seam here) with one span per figure call.
func figsRep(c *ctx, tr *tracer) (*rep, error) {
	r := &rep{fp: newFingerprint(), vals: map[string]float64{}}
	t0 := time.Now()
	o := newFigsOptions(c)
	r.setup = time.Since(t0)

	var hub *telemetry.Hub
	if tr != nil {
		var err error
		if hub, err = telemetry.Setup(telemetry.Options{Enabled: true}); err != nil {
			return nil, err
		}
		exp.Telemetry = hub
		defer func() {
			exp.Telemetry = nil
			hub.Close()
		}()
	}

	cpu0, start := cpuSeconds(), time.Now()
	root := tr.begin("paper_figs.rep", 0)

	// Fig. 7: eight panels, one scenario run each.
	sp := tr.begin("exp.fig7", root)
	fig7, err := exp.Fig7AllPanels(o.fig7)
	tr.end(sp)
	panels := int64(len(exp.Fig7Panels()))
	r.ops += panels
	jainMin := math.Inf(1)
	if err != nil {
		r.failN(panels, "fig7: %v", err)
	}
	for _, p := range fig7 {
		r.fp.str(p.Panel.ID)
		r.fp.approx(p.Jain)
		r.fp.f64(p.Utilization)
		r.fp.u64(uint64(p.LastJoinConvergence))
		for _, row := range p.Series {
			r.fp.str(row.Flow)
			r.fp.u64(uint64(row.T))
			r.fp.f64(row.Mbps)
		}
		if p.Panel.Scheme == "jury" {
			jainMin = math.Min(jainMin, p.Jain)
		}
		if !c.smoke && !(p.Utilization > 0 && p.Utilization <= 1) {
			r.failf("fig7 panel %s: utilization %v outside (0, 1]", p.Panel.ID, p.Utilization)
		}
	}

	// Table 3: two experiments of Repeats runs each.
	sp = tr.begin("exp.tab3", root)
	rows1, err1 := exp.Tab3LongShort(o.tab3)
	rows2, err2 := exp.Tab3HeteroRTT(o.tab3)
	tr.end(sp)
	repeats := int64(o.tab3.Repeats)
	if repeats == 0 {
		repeats = 3 // Tab3Options' default
	}
	r.ops += 2 * repeats
	for _, err := range []error{err1, err2} {
		if err != nil {
			r.failN(repeats, "tab3: %v", err)
		}
	}
	for _, row := range append(rows1, rows2...) {
		r.fp.str(row.Experiment)
		r.fp.str(row.Class)
		r.fp.f64(row.ThrMbps)
		r.fp.f64(row.DelayRatio)
		r.fp.u64(uint64(row.Flows))
	}

	// Ablation: one run per variant.
	sp = tr.begin("exp.ablation", root)
	abl, err := exp.RunAblation(o.abl)
	tr.end(sp)
	variants := int64(len(exp.AblationVariants()))
	r.ops += variants
	if err != nil {
		r.failN(variants, "ablation: %v", err)
	}
	ablJain := map[string]float64{}
	for _, row := range abl {
		r.fp.str(row.Variant)
		r.fp.approx(row.Jain)
		r.fp.f64(row.Utilization)
		r.fp.f64(row.QueueMS)
		ablJain[row.Variant] = row.Jain
		if !c.smoke && !(row.Utilization > 0 && row.Utilization <= 1) {
			r.failf("ablation %s: utilization %v outside (0, 1]", row.Variant, row.Utilization)
		}
	}

	// Fig. 8: one run.
	sp = tr.begin("exp.fig8", root)
	fig8, err := exp.Fig8RTTFairness(o.fig8)
	tr.end(sp)
	r.ops++
	if err != nil {
		r.failf("fig8: %v", err)
	} else {
		r.fp.f64(fig8.LateJain)
		for i := range fig8.LateShares {
			r.fp.f64(fig8.LateShares[i])
			r.fp.f64(fig8.AvgRTTms[i])
		}
		for _, row := range fig8.Series {
			r.fp.str(row.Flow)
			r.fp.u64(uint64(row.T))
			r.fp.f64(row.Mbps)
		}
		jainMin = math.Min(jainMin, fig8.LateJain)
	}

	tr.end(root)
	r.wall = time.Since(start)
	r.vals["exp.cpu_utilization"] = (cpuSeconds() - cpu0) / (r.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	if !math.IsInf(jainMin, 0) {
		r.vals["jain_jury_min"] = jainMin
	}

	// The paper's claims, at any seed: Jury stays fair in all four unseen
	// environments and across RTTs, and removing the post-processing phase
	// is what breaks fairness. The smoke size is too short for either.
	if !c.smoke && r.failed == 0 {
		if jainMin < 0.85 {
			r.failf("jain_jury_min %.4f < 0.85", jainMin)
		}
		if gap := ablJain["jury-full"] - ablJain["no-post-processing"]; gap < 0.2 {
			r.failf("ablation: no-post-processing Jain only %.4f below jury-full", gap)
		}
	}

	if hub != nil {
		count := func(name string) float64 { return float64(hub.Registry.Counter(name, "").Value()) }
		sent := count("sim_packets_sent_total")
		r.vals["netsim.packets_sent"] = sent
		r.vals["netsim.packets_acked"] = count("sim_packets_acked_total")
		r.vals["netsim.queue_drops"] = count("sim_queue_drops_total")
		r.vals["netsim.intervals"] = count("sim_intervals_total")
		if sent > 0 {
			r.vals["netsim.events_per_packet"] = count("sim_engine_events_total") / sent
		}
		r.vals["exp.runs"] = count("exp_runs_finished_total")
	}
	return r, nil
}

// figsProbes measures the layers paper_figs runs through, one at a time
// and from outside.
func figsProbes(c *ctx, tr *tracer, base, traced *rep, out *layerOut) error {
	out.set("telemetry.tax_ratio", traced.wall.Seconds()/base.wall.Seconds())
	for name, lt := range selfTimes(tr.spans) {
		switch name {
		case "exp.fig7", "exp.tab3", "exp.ablation", "exp.fig8":
			out.set(name+"_s", lt.Self.Seconds())
		}
	}
	probeEngine(c, out, "simcore.event_ns_shallow", 64, 10*time.Millisecond)
	probeNetsimPacket(c, out)
	if err := probeFig7b(c, tr, out); err != nil {
		return err
	}
	return probeRunstore(c, out)
}

// fig7bScenario is panel (b) of Fig. 7 — three staggered Jury flows on an
// unseen 350 Mbps / 30 ms link — built the way exp.Fig7Convergence builds
// it. mk, when non-nil, replaces each flow's controller factory.
func fig7bScenario(c *ctx, mk func(seed uint64) cc.Algorithm, check bool) exp.Scenario {
	stagger, lifetime := 20*time.Second, 60*time.Second
	if c.smoke {
		stagger, lifetime = 400*time.Millisecond, 1200*time.Millisecond
	}
	s := exp.Scenario{
		Name:        "bench-fig7b",
		Rate:        350e6,
		OneWayDelay: 15 * time.Millisecond,
		Seed:        c.seed,
		Horizon:     2*stagger + lifetime,
		Check:       check,
	}
	s.BufferBytes = s.BufferBDP(1.5)
	for i := 0; i < 3; i++ {
		s.Flows = append(s.Flows, exp.FlowSpec{
			Scheme: "jury", Start: time.Duration(i) * stagger, Duration: lifetime, CC: mk,
		})
	}
	return s
}

// probeFig7b runs the Fig. 7b scenario three ways: bare (the probe wall),
// under the simcheck invariant checker (its tax, and zero violations
// required), and with delegating shims around every controller and its
// policy, which count each OnAck/OnInterval/Decide and time one in 64.
func probeFig7b(c *ctx, tr *tracer, out *layerOut) error {
	var bare, checked *exp.RunResult
	var err error
	bareWall := timeIt(func() { bare, err = exp.Run(fig7bScenario(c, nil, false)) })
	if err != nil {
		return err
	}
	out.set("simcheck.violations", 0)
	checkedWall := timeIt(func() { checked, err = exp.Run(fig7bScenario(c, nil, true)) })
	if err != nil {
		// exp.Run reports invariant violations as its error.
		out.set("simcheck.violations", 1)
		out.failf("fig7b under simcheck: %v", err)
	} else if checked.Utilization != bare.Utilization {
		out.failf("fig7b: simcheck changed the run (utilization %v vs %v)", checked.Utilization, bare.Utilization)
	}
	out.set("simcheck.tax_ratio", checkedWall.Seconds()/bareWall.Seconds())

	p := &shimProbe{tr: tr}
	p.root = tr.begin("probe.fig7b", 0)
	var shimmed *exp.RunResult
	shimWall := timeIt(func() { shimmed, err = exp.Run(fig7bScenario(c, p.juryFactory(), false)) })
	tr.end(p.root)
	if err != nil {
		return err
	}
	if shimmed.Utilization != bare.Utilization {
		out.failf("fig7b: shims changed the run (utilization %v vs %v)", shimmed.Utilization, bare.Utilization)
	}
	st := selfTimes(tr.spans)
	perCall := func(name string) float64 {
		lt := st[name]
		if lt.Count == 0 {
			return 0
		}
		return math.Max(0, float64(lt.Self)/float64(lt.Count)-tr.clockNs)
	}
	ackNs, intNs, decNs := perCall("cc.on_ack"), perCall("core.on_interval"), perCall("core.policy_decide")
	out.set("cc.on_ack_calls", float64(p.acks))
	out.set("cc.on_ack_ns", ackNs)
	out.set("core.on_interval_calls", float64(p.intervals))
	out.set("core.on_interval_ns", intNs)
	out.set("core.policy_decide_ns", decNs)
	out.set("cc.share", (float64(p.acks)*ackNs+float64(p.intervals)*intNs+float64(p.decides)*decNs)/float64(shimWall))
	return nil
}

// shimProbe is the shared state of the delegating shims of one scenario
// run. A single-shard run executes on one goroutine, so plain fields do.
type shimProbe struct {
	tr   *tracer
	root int
	// cur is the span of the OnInterval call being timed (0 = none), so the
	// Decide it makes nests under it and is subtracted from its self time.
	cur                      int
	acks, intervals, decides int64
}

// juryFactory builds what exp.NewScheme("jury", seed) builds, with a
// counting shim around the controller and another around its policy.
func (p *shimProbe) juryFactory() func(seed uint64) cc.Algorithm {
	return func(seed uint64) cc.Algorithm {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		return &ccShim{p: p, inner: core.New(cfg, &policyShim{p: p, inner: core.NewReferencePolicy()})}
	}
}

// ccShim delegates every cc.IntervalAlgorithm method to inner.
type ccShim struct {
	p     *shimProbe
	inner cc.IntervalAlgorithm
}

func (s *ccShim) Name() string                   { return s.inner.Name() }
func (s *ccShim) Init(now time.Duration)         { s.inner.Init(now) }
func (s *ccShim) OnLoss(l cc.Loss)               { s.inner.OnLoss(l) }
func (s *ccShim) CWND() float64                  { return s.inner.CWND() }
func (s *ccShim) PacingRate() float64            { return s.inner.PacingRate() }
func (s *ccShim) ControlInterval() time.Duration { return s.inner.ControlInterval() }

func (s *ccShim) OnAck(a cc.Ack) {
	s.p.acks++
	if s.p.acks&63 != 0 {
		s.inner.OnAck(a)
		return
	}
	id := s.p.tr.begin("cc.on_ack", s.p.root)
	s.inner.OnAck(a)
	s.p.tr.end(id)
}

func (s *ccShim) OnInterval(st cc.IntervalStats) {
	s.p.intervals++
	if s.p.intervals&63 != 0 {
		s.inner.OnInterval(st)
		return
	}
	s.p.cur = s.p.tr.begin("core.on_interval", s.p.root)
	s.inner.OnInterval(st)
	s.p.tr.end(s.p.cur)
	s.p.cur = 0
}

// policyShim delegates Decide; it is timed whenever the OnInterval that
// made the call is.
type policyShim struct {
	p     *shimProbe
	inner core.Policy
}

func (s *policyShim) Decide(state []float64) (float64, float64) {
	s.p.decides++
	if s.p.cur == 0 {
		return s.inner.Decide(state)
	}
	id := s.p.tr.begin("core.policy_decide", s.p.cur)
	mu, delta := s.inner.Decide(state)
	s.p.tr.end(id)
	return mu, delta
}

// probeRunstore records eight short Fig. 7-shaped runs through exp.RunMany
// into a store, replays them with resume on (every run must be a hit), and
// times Put and Get of those same records directly.
func probeRunstore(c *ctx, out *layerOut) error {
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func(name string) (*runstore.Store, error) {
		return runstore.Open(runstore.Options{Dir: filepath.Join(dir, name), Fsync: runstore.FsyncNever})
	}
	st, err := open("a")
	if err != nil {
		return err
	}
	defer st.Close()
	stagger, lifetime := 5*time.Second, 15*time.Second
	if c.smoke {
		stagger, lifetime = 200*time.Millisecond, 600*time.Millisecond
	}
	var jobs []exp.Scenario
	for i, p := range exp.Fig7Panels() {
		s := exp.Scenario{
			Name: "bench-store-" + p.ID, Rate: p.Rate, OneWayDelay: p.RTT / 2, LossRate: p.Loss,
			Seed: c.seed + uint64(i), Horizon: 2*stagger + lifetime,
		}
		s.BufferBytes = s.BufferBDP(1.5)
		for f := 0; f < 3; f++ {
			s.Flows = append(s.Flows, exp.FlowSpec{Scheme: p.Scheme, Start: time.Duration(f) * stagger, Duration: lifetime})
		}
		jobs = append(jobs, s)
	}
	exp.AttachStore(st, false)
	defer exp.AttachStore(nil, false)
	live, err := exp.RunMany(jobs)
	if err != nil {
		return err
	}
	exp.AttachStore(st, true)
	replay, err := exp.RunMany(jobs)
	if err != nil {
		return err
	}
	for i := range replay {
		if !replay[i].Cached || replay[i].Utilization != live[i].Utilization {
			out.failf("runstore: resumed run %d is not the stored run", i)
		}
	}

	recs := st.Records()
	if len(recs) != len(jobs) {
		out.failf("runstore: %d records for %d runs", len(recs), len(jobs))
		return nil
	}
	fresh, err := open("b")
	if err != nil {
		return err
	}
	defer fresh.Close()
	var puts, gets []float64
	for _, rec := range recs {
		var perr error
		puts = append(puts, float64(timeIt(func() { perr = fresh.Put(rec) }))/1e3)
		if perr != nil {
			return perr
		}
	}
	for _, rec := range recs {
		var ok bool
		gets = append(gets, float64(timeIt(func() { _, ok = fresh.Get(rec.Key) }))/1e3)
		if !ok {
			out.failf("runstore: record %s not found after Put", rec.Key.Short())
		}
	}
	out.metrics["runstore.put_us"] = medianOf(puts)
	out.metrics["runstore.get_us"] = medianOf(gets)
	return nil
}
