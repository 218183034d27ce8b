package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for unparented spans (fault-hook
// transitions and filesystem calls, which carry only their timestamps).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Kind qualifies the span: the file kind for filesystem spans.
	Kind string `json:"kind,omitempty"`
	// Bytes is the payload size for filesystem writes.
	Bytes int `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID allocates a span identifier (0 when tracing is off).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// record stores one finished span. id 0 allocates a fresh identifier.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	t.add(span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span { return t.since(0) }

// since returns the spans recorded after the first n, so one pass's spans
// can be told from the earlier passes' in a run-long tracer.
func (t *tracer) since(n int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[n:]...)
}

// count returns how many spans have been recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// durations returns the durations, in milliseconds, of every span named
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// sumSeconds totals durations returned by durations.
func sumSeconds(msList []float64) float64 {
	var sum float64
	for _, v := range msList {
		sum += v
	}
	return sum / 1000
}

// Span names. The stream.* spans are reconstructed from the service's
// fault points: the interval between two transitions is the work the
// service did between them.
const (
	spanClientEvents  = "client.events"
	spanClientResults = "client.results"
	spanServeEvents   = "serve.events"
	spanServeResults  = "serve.results"
	spanDayFlush      = "stream.day_flush"     // PointDayEnd → PointDayFlushed
	spanQuery         = "stream.query"         // previous transition → PointQueryExecuted
	spanSnapshotTick  = "stream.snapshot_tick" // PointRetentionAdvanced → PointDeltaCaptured
	spanPoint         = "stream.point"         // any other transition, as an instant
	spanFsync         = "checkpoint.fsync"
	spanWrite         = "checkpoint.write"
)

// faultSpans turns the service's fault points into spans. The hook runs on
// the service goroutine only, so its state needs no lock; spans go through
// the tracer's.
type faultSpans struct {
	t        *tracer
	dayEnd   time.Time
	last     time.Time // previous transition within the current flush
	retained time.Time
}

// hook is a stream.FaultHook that never injects a fault.
func (f *faultSpans) hook(p stream.FaultPoint) error {
	if p == stream.PointEventIngested {
		return nil // per-event: too frequent to span, and covered by the flush gaps
	}
	now := time.Now()
	switch p {
	case stream.PointDayEnd:
		f.dayEnd, f.last = now, now
	case stream.PointQueryExecuted:
		f.t.record(0, 0, spanQuery, f.last, now)
		f.last = now
	case stream.PointDayFlushed:
		f.t.record(0, 0, spanDayFlush, f.dayEnd, now)
	case stream.PointRetentionAdvanced:
		f.retained = now
	case stream.PointDeltaCaptured:
		f.t.record(0, 0, spanSnapshotTick, f.retained, now)
	default:
		f.t.add(span{ID: f.t.newID(), Name: spanPoint, Kind: string(p), Start: f.t.at(now), End: f.t.at(now)})
	}
	return nil
}
