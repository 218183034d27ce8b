package main

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/stream"
	"repro/internal/workload"
)

// replayResult is one in-process pass.
type replayResult struct {
	wall       time.Duration // call → complete result
	latMs      []float64     // paced passes: per batch, due → last event applied
	resMs      []float64     // paced passes: per result, day end → result released
	digest     string
	durability stream.DurabilityStats
}

// replayPass runs the whole trace through workload.ExecuteStream as fast
// as the service drains it — no HTTP, no durability.
func replayPass(cfg workload.Config, t *tracer) (*replayResult, error) {
	if t != nil {
		cfg.FaultHook = (&faultSpans{t: t}).hook
	}
	start := time.Now()
	run, err := workload.ExecuteStream(cfg)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	wall := time.Since(start)
	return &replayResult{wall: wall, digest: run.CanonicalDigest(), durability: run.Durability}, nil
}

// pacedPass feeds the trace to the in-process service on an open-loop
// schedule: the source hands out each batch no earlier than its due
// instant, and a batch counts as done when the service has applied its
// last event. It is the in-process counterpart of servePass.
func pacedPass(cfg workload.Config, p *plan, sc schedule) (*replayResult, error) {
	src := &pacedSource{meta: cfg.Dataset.Meta(), plan: p, sched: sc}
	res := &replayResult{latMs: make([]float64, len(p.batches))}
	// Both observers and the fault hook run on the service goroutine.
	applied, next, end := 0, 0, 0
	if len(p.batches) > 0 {
		end = len(p.batches[0].events)
	}
	cfg.AdmitObserver = func(events.Event, bool) {
		applied++
		for next < len(p.batches) && applied == end {
			res.latMs[next] = ms(time.Since(src.start.Add(sc.due[next])))
			next++
			if next < len(p.batches) {
				end += len(p.batches[next].events)
			}
		}
	}
	var dayEnd time.Time
	cfg.FaultHook = func(pt stream.FaultPoint) error {
		if pt == stream.PointDayEnd {
			dayEnd = time.Now()
		}
		return nil
	}
	cfg.ResultObserver = func(stream.Result) {
		res.resMs = append(res.resMs, ms(time.Since(dayEnd)))
	}
	start := time.Now()
	run, err := workload.ExecuteSource(cfg, src)
	if err != nil {
		return nil, fmt.Errorf("paced replay: %w", err)
	}
	if next != len(p.batches) {
		return nil, fmt.Errorf("paced replay: %d of %d batches applied", next, len(p.batches))
	}
	res.wall = time.Since(start)
	res.digest = run.CanonicalDigest()
	return res, nil
}

// pacedSource is a dataset.Source that releases a single-sender plan on a
// schedule. Next runs on the service's producer goroutine; start is
// written before the first event is handed out, so the observers, which
// see that event later, read it safely.
type pacedSource struct {
	meta  dataset.Meta
	plan  *plan
	sched schedule
	start time.Time
	bi    int // next batch
	ei    int // next event within it
}

// Meta implements dataset.Source.
func (s *pacedSource) Meta() dataset.Meta { return s.meta }

// Next implements dataset.Source.
func (s *pacedSource) Next() (events.Event, bool) {
	if s.bi >= len(s.plan.batches) {
		return events.Event{}, false
	}
	b := s.plan.batches[s.bi]
	if s.ei == 0 {
		if s.bi == 0 {
			s.start = time.Now()
		}
		if wait := time.Until(s.start.Add(s.sched.due[s.bi])); wait > 0 {
			time.Sleep(wait)
		}
	}
	ev := b.events[s.ei]
	s.ei++
	if s.ei == len(b.events) {
		s.bi, s.ei = s.bi+1, 0
	}
	return ev, true
}
