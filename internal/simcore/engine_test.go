package simcore

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// schedule queues fn at absolute time at through ScheduleArg, the engine's
// one scheduling call. The per-call closure is fine in tests that are not
// measuring the hot path.
func schedule(e *Engine, at time.Duration, fn func()) Timer {
	return e.ScheduleArg(at, func(any) { fn() }, nil)
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 40} {
		d := d
		schedule(e, d, func() { got = append(got, d) })
	}
	n := e.Run(100)
	if n != 5 {
		t.Fatalf("executed %d events, want 5", n)
	}
	want := []time.Duration{10, 10, 20, 30, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(e, 5, func() { got = append(got, i) })
	}
	e.Run(10)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	schedule(e, 10, func() { fired++ })
	schedule(e, 20, func() { fired++ }) // exactly at horizon: fires
	schedule(e, 21, func() { fired++ }) // after horizon: stays queued
	e.Run(20)
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	// A second Run picks up where the first left off.
	e.Run(30)
	if fired != 3 {
		t.Fatalf("fired %d after second run, want 3", fired)
	}
}

func TestEngineClockAdvancesToHorizonWhenIdle(t *testing.T) {
	e := NewEngine()
	e.Run(time.Second)
	if e.Now() != time.Second {
		t.Fatalf("idle clock at %v, want 1s", e.Now())
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var order []string
	schedule(e, 10, func() {
		order = append(order, "a")
		schedule(e, e.Now()+5, func() { order = append(order, "b") })
	})
	schedule(e, 12, func() { order = append(order, "c") })
	e.Run(100)
	want := []string{"a", "c", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := schedule(e, 10, func() { fired = true })
	ev.Cancel()
	e.Run(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	schedule(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		schedule(e, 5, func() {})
	})
	e.Run(100)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first samples")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformMean(t *testing.T) {
	r := NewRNG(99)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %.4f, want ~0.5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(5)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %.4f, want ~1", variance)
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("bernoulli(0.3) rate %.4f", rate)
	}
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range(-2,5) produced %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %.4f, want ~1", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(21)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

// SchedAt is the executing event's schedule stamp, the tie-break half of
// its queue key: the clock when ScheduleArg queued it, the explicit stamp
// of an InjectArg (one ahead of the clock at injection included), and the
// re-key time of an event Rearm moved in place.
func TestSchedAtReportsExecutingStamp(t *testing.T) {
	e := NewEngine()
	got := map[string]time.Duration{}
	record := func(name string) func(any) {
		return func(any) { got[name] = e.SchedAt() }
	}
	var timer Timer
	e.ScheduleArg(10, func(any) {
		got["outer"] = e.SchedAt()
		e.ScheduleArg(25, record("scheduled"), nil)
		e.InjectArg(30, 5, record("injected"), nil)
		e.InjectArg(40, 35, record("injected-future"), nil)
		timer = e.ScheduleArg(50, record("rearmed"), nil)
	}, nil)
	e.ScheduleArg(20, func(any) {
		pending := e.Pending()
		timer = e.Rearm(timer, 50, record("rearmed"), nil)
		if e.Pending() != pending {
			t.Errorf("Rearm at the queued time left %d events queued, want %d (re-keyed in place)", e.Pending(), pending)
		}
	}, nil)
	e.Run(100)
	want := map[string]time.Duration{
		"outer":           0,
		"scheduled":       10,
		"injected":        5,
		"injected-future": 35,
		"rearmed":         20,
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s event: SchedAt %v (ran %v), want %v", name, g, ok, w)
		}
	}
	if e.SchedAt() != 20 {
		t.Errorf("after Run, SchedAt %v, want the last executed event's stamp 20", e.SchedAt())
	}
}
