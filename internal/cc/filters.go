package cc

import "time"

// windowedSample pairs a value with its timestamp.
type windowedSample struct {
	at time.Duration
	v  float64
}

// WindowedMax tracks the maximum over a trailing time window using a
// monotonic deque — the estimator BBR uses for bottleneck bandwidth.
type WindowedMax struct {
	window time.Duration
	q      []windowedSample // the deque, live from head on (see push)
	head   int
}

// NewWindowedMax returns a max filter over the given trailing window.
func NewWindowedMax(window time.Duration) *WindowedMax {
	return &WindowedMax{window: window}
}

// Update inserts a sample at time now and returns the windowed maximum.
func (w *WindowedMax) Update(now time.Duration, v float64) float64 {
	for len(w.q) > w.head && w.q[len(w.q)-1].v <= v {
		w.q = w.q[:len(w.q)-1]
	}
	w.q, w.head = push(w.q, w.head, windowedSample{now, v})
	w.expire(now)
	return w.Value()
}

// SetWindow changes the trailing window length (BBR scales its bandwidth
// filter window with the RTT). Takes effect on the next Update.
func (w *WindowedMax) SetWindow(window time.Duration) { w.window = window }

func (w *WindowedMax) expire(now time.Duration) {
	for len(w.q)-w.head > 1 && now-w.q[w.head].at > w.window {
		w.head++
	}
}

// Value reports the current windowed maximum (0 when empty).
func (w *WindowedMax) Value() float64 {
	if len(w.q) == w.head {
		return 0
	}
	return w.q[w.head].v
}

// push appends x to a deque live from head on. Expiry advances head rather
// than reslicing the front away, so when the backing array is full and at
// least half of it is expired, the live part slides to the front first: a
// filter in steady state reuses one array instead of reallocating on every
// append past its capacity.
func push[T any](q []T, head int, x T) ([]T, int) {
	if len(q) == cap(q) && 2*head >= len(q) {
		q, head = q[:copy(q, q[head:])], 0
	}
	return append(q, x), head
}

// WindowedMinRTT tracks the minimum RTT over a trailing time window — the
// propagation-delay estimator used by BBR, Copa, and Vegas.
type WindowedMinRTT struct {
	window time.Duration
	q      []windowedRTT // the deque, live from head on (see push)
	head   int
}

type windowedRTT struct {
	at  time.Duration
	rtt time.Duration
}

// NewWindowedMinRTT returns a min filter over the given trailing window.
// A zero window means "never expire" (lifetime minimum).
func NewWindowedMinRTT(window time.Duration) *WindowedMinRTT {
	return &WindowedMinRTT{window: window}
}

// SetWindow changes the trailing window length (Copa scales its standing-RTT
// filter window with srtt/2). Takes effect on the next Update; non-positive
// windows mean "never expire".
func (w *WindowedMinRTT) SetWindow(window time.Duration) { w.window = window }

// Update inserts an RTT sample at time now and returns the windowed minimum.
func (w *WindowedMinRTT) Update(now, rtt time.Duration) time.Duration {
	for len(w.q) > w.head && w.q[len(w.q)-1].rtt >= rtt {
		w.q = w.q[:len(w.q)-1]
	}
	w.q, w.head = push(w.q, w.head, windowedRTT{now, rtt})
	if w.window > 0 {
		for len(w.q)-w.head > 1 && now-w.q[w.head].at > w.window {
			w.head++
		}
	}
	return w.Value()
}

// Value reports the current windowed minimum (0 when empty).
func (w *WindowedMinRTT) Value() time.Duration {
	if len(w.q) == w.head {
		return 0
	}
	return w.q[w.head].rtt
}
