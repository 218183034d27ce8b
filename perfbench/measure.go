package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/workload"
)

// pass is what one whole-trace pass yields, whatever drove it.
type pass struct {
	wall   time.Duration
	latMs  []float64          // paced passes: per batch, due → done
	pollMs []float64          // paced passes: result read latency (see WORKLOADS.md)
	layers map[string]float64 // traced passes: per-layer metrics
}

// runner drives one workload's passes. Every pass it returns has passed
// the workload's output check; attempts and refusals are counted as it
// goes.
type runner interface {
	// paced runs the trace on an open-loop schedule.
	paced(sc schedule, t *tracer) (pass, error)
	// full runs the trace as fast as the system takes it.
	full() (pass, error)
	// traced runs the pass the per-layer metrics come from, traced by t,
	// and returns its cost: the number tracing overhead is measured on.
	traced(t *tracer) (pass, float64, error)
	// untracedCost returns the same cost for an untraced pass of the
	// traced kind, given an untraced nominal pass just run.
	untracedCost(nominal pass) (float64, error)
	counts() (attempted, failed int)
}

func measure(ctx context.Context, o options) (*report, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.out = work

	var in *inputs
	var setups []float64
	for i := 0; i < setupReps; i++ {
		next, err := setup(ctx, o)
		if err != nil {
			return nil, err
		}
		if in != nil && next.digest != in.digest {
			return nil, fmt.Errorf("set-up %d: reference digest %s differs from %s", i, next.digest, in.digest)
		}
		in = next
		setups = append(setups, in.setupTime.Seconds())
	}
	fmt.Fprintf(o.log, "perfbench: %s seed %d: %d events, %d queriers, %d reference results, %d batches\n",
		o.w.name, o.seed, len(in.ds.Events), len(in.ds.Advertisers), in.results, len(in.plan.batches))

	var r runner
	if o.w.serve {
		r = &serveRunner{ctx: ctx, o: o, in: in}
	} else {
		r = newReplayRunner(o, in)
	}
	var rep *report
	if o.trace {
		rep, err = measureLayers(o, r, in)
	} else {
		rep, err = measureEndToEnd(o, r, in)
	}
	if err != nil {
		rep = &report{}
		rep.Attempted, rep.Failed = r.counts()
		return rep, err
	}
	if !o.trace {
		rep.Metrics["setup_s"] = metric{median(setups), endToEndUnits["setup_s"]}
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return &report{Attempted: rep.Attempted, Failed: rep.Failed}, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return rep, nil
}

// endToEndUnits lists the end-to-end metrics every workload reports
// untraced, with their units (BENCHMARK.json's end_to_end).
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"ingest_p50_ms":       "ms",
	"poll_p50_ms":         "ms",
	"replay_events_per_s": "1/s",
	"peak_live_heap_mb":   "MB",
}

func withUnits(units map[string]string, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(vals))
	for name, v := range vals {
		out[name] = metric{v, units[name]}
	}
	return out
}

// deadline reports whether the measurement budget is spent.
func deadline(start time.Time, o options) bool { return time.Since(start) >= o.seconds }

// passRunner runs one workload's passes for a run and keeps what they yield.
// Every pass starts from a collected heap.
type passRunner struct {
	o     options
	r     runner
	in    *inputs
	peaks []float64 // per pass: highest live heap, MB
}

func (s *passRunner) pass(kind string, f func() (pass, error)) (pass, error) {
	runtime.GC()
	h := startHeapSampler()
	p, err := f()
	s.peaks = append(s.peaks, h.finish())
	if err == nil {
		pt, tl := tail(p.latMs, 99)
		fmt.Fprintf(s.o.log, "perfbench: pass %s: %.2fs, %.0f events/s, p50 %.3fms, p%.1f %.3fms, heap %.1fMB\n",
			kind, p.wall.Seconds(), float64(len(s.in.ds.Events))/p.wall.Seconds(), median(p.latMs), pt, tl,
			s.peaks[len(s.peaks)-1])
	}
	return p, err
}

func (s *passRunner) nominal() (pass, error) {
	sc := fixedRate(s.in.plan, s.o.w.ladder[0])
	return s.pass("nominal", func() (pass, error) { return s.r.paced(sc, nil) })
}

// ladder searches the workload's rate ladder; nominal is a nominal pass,
// the verdict on its first rung.
func (s *passRunner) ladder(nominal pass) (float64, error) {
	base := verdict(s.o.w.ladder[0], nominal.latMs, s.o.w.p99LimitMs)
	best, verdicts, err := searchLadder(s.o.w.ladder, base, func(rate float64) (rungVerdict, error) {
		sc := fixedRate(s.in.plan, rate)
		p, err := s.pass(fmt.Sprintf("rung-%.0f", rate), func() (pass, error) { return s.r.paced(sc, nil) })
		if err != nil {
			return rungVerdict{}, err
		}
		return verdict(rate, p.latMs, s.o.w.p99LimitMs), nil
	})
	logJSON(s.o, "ladder", verdicts)
	return best, err
}

// tail99 is the ingest tail over pooled nominal-pass latencies.
func (s *passRunner) tail99(lat []float64) float64 {
	p, v := tail(lat, 99)
	fmt.Fprintf(s.o.log, "perfbench: ingest latency over %d batches; tail reported at p%.1f\n", len(lat), p)
	return v
}

// measureEndToEnd runs untraced passes: rounds of a nominal pass and a
// full-speed pass while the budget lasts. The latency figures pool every
// nominal pass's batches; replay_events_per_s is the median of the
// full-speed passes' rates and peak_live_heap_mb the median of every
// pass's peak, so one pass hit by a disk or scheduler hiccup does not
// move them.
func measureEndToEnd(o options, r runner, in *inputs) (*report, error) {
	s := &passRunner{o: o, r: r, in: in}
	var lat, polls, eps []float64
	start := time.Now()
	for i := 0; i == 0 || !deadline(start, o); i++ {
		p, err := s.nominal()
		if err != nil {
			return nil, err
		}
		lat = append(lat, p.latMs...)
		polls = append(polls, p.pollMs...)
		p, err = s.pass("full", r.full)
		if err != nil {
			return nil, err
		}
		eps = append(eps, float64(len(in.ds.Events))/p.wall.Seconds())
	}
	s.tail99(lat)
	rep := &report{Correct: true, Metrics: withUnits(endToEndUnits, map[string]float64{
		"ingest_p50_ms":       median(lat),
		"poll_p50_ms":         median(polls),
		"replay_events_per_s": median(eps),
		"peak_live_heap_mb":   median(s.peaks),
	})}
	rep.Attempted, rep.Failed = r.counts()
	return rep, nil
}

// measureLayers searches the rate ladder once, then alternates untraced
// and traced passes while the budget lasts. The per-layer metrics are
// medians over the traced passes; trace.overhead_pct compares the traced
// passes' median cost with their untraced counterparts'. The ingest tail
// and the sustainable rate come from the untraced passes: they are
// end-to-end figures, reported here without a bound because their
// run-to-run spread on a small shared machine is wider than any bound a
// benchmark may set (WORKLOADS.md).
func measureLayers(o options, r runner, in *inputs) (*report, error) {
	s := &passRunner{o: o, r: r, in: in}
	var lat, plain, traced []float64
	var layers []map[string]float64
	var sust float64
	t := newTracer() // one epoch and one id space for the run's span file
	start := time.Now()
	for i := 0; i == 0 || !deadline(start, o); i++ {
		p, err := s.nominal()
		if err != nil {
			return nil, err
		}
		lat = append(lat, p.latMs...)
		if i == 0 {
			if sust, err = s.ladder(p); err != nil {
				return nil, err
			}
		}
		cost, err := r.untracedCost(p)
		if err != nil {
			return nil, err
		}
		plain = append(plain, cost)
		p, cost, err = r.traced(t)
		if err != nil {
			return nil, err
		}
		traced = append(traced, cost)
		layers = append(layers, p.layers)
	}
	rep := &report{Correct: true, Metrics: medianLayers(layers)}
	rep.Metrics["trace.overhead_pct"] = metric{100 * (median(traced)/median(plain) - 1), layerUnits["trace.overhead_pct"]}
	rep.Metrics["e2e.ingest_p99_ms"] = metric{s.tail99(lat), layerUnits["e2e.ingest_p99_ms"]}
	rep.Metrics["e2e.sustainable_eps"] = metric{sust, layerUnits["e2e.sustainable_eps"]}
	if err := writeSpans(o, t); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = r.counts()
	return rep, nil
}

func logJSON(o options, what string, v any) {
	b, err := json.Marshal(v)
	if err == nil {
		fmt.Fprintf(o.log, "perfbench: %s %s\n", what, b)
	}
}

func writeSpans(o options, t *tracer) error {
	// Spans outlive the run's scratch directory: they go next to it.
	path := filepath.Join(filepath.Dir(o.out), fmt.Sprintf("%s-seed%d.spans.jsonl", o.w.name, o.seed))
	if err := t.write(path); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "perfbench: %d spans written to %s\n", t.count(), path)
	return nil
}

// serveRunner drives HTTP passes against fresh in-process servers.
type serveRunner struct {
	ctx               context.Context
	o                 options
	in                *inputs
	attempted, failed int
}

func (s *serveRunner) counts() (int, int) { return s.attempted, s.failed }

func (s *serveRunner) run(sc schedule, t *tracer) (*serveResult, error) {
	r, err := servePass(s.ctx, serveOpts{scenario: s.o.w.scenario(s.o.seed), ds: s.in.ds,
		plan: s.in.plan, sched: sc, workDir: s.o.out, tracer: t})
	if err != nil {
		s.attempted++
		s.failed++
		return nil, err
	}
	s.attempted += r.attempts
	s.failed += r.refused
	if err := checkServe(s.in, r); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	return r, nil
}

func (s *serveRunner) paced(sc schedule, t *tracer) (pass, error) {
	first := t.count()
	r, err := s.run(sc, t)
	if err != nil {
		return pass{}, err
	}
	p := pass{wall: r.wall, latMs: r.latMs, pollMs: r.pollMs}
	if t != nil {
		p.layers = serveLayers(s.in, r, t.since(first))
	}
	return p, nil
}

func (s *serveRunner) full() (pass, error) { return s.paced(fixedRate(s.in.plan, 0), nil) }

// traced runs a nominal pass; its cost is the median batch latency.
func (s *serveRunner) traced(t *tracer) (pass, float64, error) {
	p, err := s.paced(fixedRate(s.in.plan, s.o.w.ladder[0]), t)
	return p, median(p.latMs), err
}

func (s *serveRunner) untracedCost(nominal pass) (float64, error) { return median(nominal.latMs), nil }

// checkServe holds a served pass to the exactly-once contract: every
// trace event acknowledged once (accepted + duplicates = trace), the
// server ingested exactly the trace, nothing dropped late, no give-ups,
// and every querier got as many results as in the batch reference.
// Multi-sender admission order differs from the trace order, so digests
// are not compared (DESIGN.md §13).
func checkServe(in *inputs, r *serveResult) error {
	n := len(in.ds.Events)
	switch {
	case r.giveUps != 0:
		return fmt.Errorf("%d batches given up", r.giveUps)
	case r.accepted+r.dupes != n:
		return fmt.Errorf("acknowledged %d accepted + %d duplicates, trace has %d events", r.accepted, r.dupes, n)
	case r.ingested != n:
		return fmt.Errorf("server ingested %d events, trace has %d", r.ingested, n)
	case r.dropped != 0:
		return fmt.Errorf("server dropped %d events as late", r.dropped)
	case len(r.results) != in.results:
		return fmt.Errorf("%d results, reference has %d", len(r.results), in.results)
	}
	got := map[string]int{}
	for _, res := range r.results {
		got[res.Querier]++
	}
	for q, want := range in.perQuery {
		if got[q] != want {
			return fmt.Errorf("querier %s: %d results, reference has %d", q, got[q], want)
		}
	}
	return nil
}

// replayRunner drives in-process passes; every pass's digest must equal
// the batch reference's.
type replayRunner struct {
	in                *inputs
	cfg               workload.Config
	attempted, failed int
}

func newReplayRunner(o options, in *inputs) *replayRunner {
	cfg := o.w.scenario(o.seed)
	cfg.Dataset = in.ds
	return &replayRunner{in: in, cfg: cfg}
}

func (r *replayRunner) counts() (int, int) { return r.attempted, r.failed }

func (r *replayRunner) check(res *replayResult, err error) (*replayResult, error) {
	r.attempted++
	if err == nil && res.digest != r.in.digest {
		err = fmt.Errorf("output check: digest %s, batch reference %s", res.digest, r.in.digest)
	}
	if err != nil {
		r.failed++
		return nil, err
	}
	return res, nil
}

func (r *replayRunner) paced(sc schedule, _ *tracer) (pass, error) {
	res, err := r.check(pacedPass(r.cfg, r.in.plan, sc))
	if err != nil {
		return pass{}, err
	}
	return pass{wall: res.wall, latMs: res.latMs, pollMs: res.resMs}, nil
}

func (r *replayRunner) full() (pass, error) {
	p, _, err := r.traced(nil)
	return p, err
}

func (r *replayRunner) untracedCost(pass) (float64, error) {
	_, cost, err := r.traced(nil)
	return cost, err
}

// traced runs a full-speed replay; its cost is the wall time.
func (r *replayRunner) traced(t *tracer) (pass, float64, error) {
	first := t.count()
	res, err := r.check(replayPass(r.cfg, t))
	if err != nil {
		return pass{}, 0, err
	}
	p := pass{wall: res.wall}
	if t != nil {
		p.layers = streamLayers(res.wall, res.durability, t.since(first))
	}
	return p, res.wall.Seconds(), nil
}
