package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// Sink is a buffered, mutex-guarded JSONL writer: every call appends one
// line atomically, so spans and events from concurrent experiment workers
// interleave at line granularity. A nil Sink discards everything.
type Sink struct {
	mu sync.Mutex
	bw *bufio.Writer
	c  io.Closer
	n  int64 // lines written
}

// NewSink wraps w. If w is also an io.Closer (a file), Close closes it.
func NewSink(w io.Writer) *Sink {
	s := &Sink{bw: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// writeLine appends one JSONL line (the trailing newline is added here).
func (s *Sink) writeLine(b []byte) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.bw.Write(b)
	s.bw.WriteByte('\n')
	s.n++
	s.mu.Unlock()
}

// Lines reports how many lines have been written.
func (s *Sink) Lines() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Flush drains the buffer to the underlying writer.
func (s *Sink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bw.Flush()
}

// Close flushes and closes the underlying writer if it is closable.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	err := s.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// kvKind discriminates the typed field union; a KV carries exactly one of
// the payloads so event emission never boxes values into interfaces.
type kvKind uint8

const (
	kvStr kvKind = iota
	kvI64
	kvF64
)

// KV is one typed key/value field of a structured event.
type KV struct {
	K    string
	kind kvKind
	s    string
	i    int64
	f    float64
}

// Str builds a string field.
func Str(k, v string) KV { return KV{K: k, kind: kvStr, s: v} }

// I64 builds an integer field.
func I64(k string, v int64) KV { return KV{K: k, kind: kvI64, i: v} }

// F64 builds a float field.
func F64(k string, v float64) KV { return KV{K: k, kind: kvF64, f: v} }

// Dur builds an integer field holding nanoseconds.
func Dur(k string, v time.Duration) KV { return KV{K: k, kind: kvI64, i: int64(v)} }

// appendKV appends `,"k":value` to b.
func appendKV(b []byte, kv KV) []byte {
	b = append(b, ',')
	b = strconv.AppendQuote(b, kv.K)
	b = append(b, ':')
	switch kv.kind {
	case kvStr:
		b = strconv.AppendQuote(b, kv.s)
	case kvI64:
		b = strconv.AppendInt(b, kv.i, 10)
	default:
		f := kv.f
		// JSON has no Inf/NaN literals; clamp to null.
		if f != f || f > maxJSONFloat || f < -maxJSONFloat {
			b = append(b, "null"...)
		} else {
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
	}
	return b
}

const maxJSONFloat = 1.797693134862315708145274237317043567981e308

// Tracer emits spans and structured events to a Sink as JSONL. A nil Tracer
// is a no-op. Emission reads the wall clock but never a simulation's RNG or
// event queue: tracing a deterministic run does not perturb it.
type Tracer struct {
	sink *Sink
	pool sync.Pool // *[]byte line scratch
}

// NewTracer returns a tracer writing to sink (nil sink ⇒ no-op tracer).
func NewTracer(sink *Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// scratch hands out a pooled *[]byte (length 0); release must get the same
// pointer back so the pool cycle itself never allocates.
func (t *Tracer) scratch() *[]byte {
	if p, ok := t.pool.Get().(*[]byte); ok {
		*p = (*p)[:0]
		return p
	}
	b := make([]byte, 0, 256)
	return &b
}

func (t *Tracer) release(p *[]byte) {
	t.pool.Put(p)
}

// Span is one in-flight traced operation. The zero value (from a nil
// tracer) is inert: End on it is a no-op.
type Span struct {
	t         *Tracer
	name      string
	wallStart time.Time
	vtStart   time.Duration
}

// Start opens a span. virtual is the simulation's virtual time at the start
// (pass 0 when no virtual clock applies, e.g. training epochs).
func (t *Tracer) Start(name string, virtual time.Duration) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, wallStart: time.Now(), vtStart: virtual}
}

// End closes the span at the given virtual time and emits one JSONL line:
//
//	{"t":"span","name":...,"wall_start_ns":...,"wall_ns":...,"vt_start_ns":...,"vt_ns":...}
//
// wall_ns is the wall-clock duration; vt_ns the virtual-time extent.
func (sp Span) End(virtual time.Duration, kvs ...KV) {
	t := sp.t
	if t == nil {
		return
	}
	p := t.scratch()
	b := *p
	b = append(b, `{"t":"span","name":`...)
	b = strconv.AppendQuote(b, sp.name)
	b = append(b, `,"wall_start_ns":`...)
	b = strconv.AppendInt(b, sp.wallStart.UnixNano(), 10)
	b = append(b, `,"wall_ns":`...)
	b = strconv.AppendInt(b, int64(time.Since(sp.wallStart)), 10)
	b = append(b, `,"vt_start_ns":`...)
	b = strconv.AppendInt(b, int64(sp.vtStart), 10)
	b = append(b, `,"vt_ns":`...)
	b = strconv.AppendInt(b, int64(virtual-sp.vtStart), 10)
	for _, kv := range kvs {
		b = appendKV(b, kv)
	}
	b = append(b, '}')
	t.sink.writeLine(b)
	*p = b
	t.release(p)
}

// Event emits one structured log line:
//
//	{"t":"event","domain":...,"name":...,"wall_ns":...,"vt_ns":...,<fields>}
//
// domain is "sim", "train", or "exp"; virtual is the virtual time of the
// event (0 where none applies). Fields land at the top level so line-
// oriented tools (jq, jury plot -trace) can filter without nesting.
func (t *Tracer) Event(domain, name string, virtual time.Duration, kvs ...KV) {
	if t == nil {
		return
	}
	p := t.scratch()
	b := *p
	b = append(b, `{"t":"event","domain":`...)
	b = strconv.AppendQuote(b, domain)
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"wall_ns":`...)
	b = strconv.AppendInt(b, time.Now().UnixNano(), 10)
	b = append(b, `,"vt_ns":`...)
	b = strconv.AppendInt(b, int64(virtual), 10)
	for _, kv := range kvs {
		b = appendKV(b, kv)
	}
	b = append(b, '}')
	t.sink.writeLine(b)
	*p = b
	t.release(p)
}
