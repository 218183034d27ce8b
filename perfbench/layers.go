package main

import (
	"time"

	"repro/internal/stream"
)

// layerUnits lists the per-layer metrics a traced run reports, with their
// units (BENCHMARK.json's per_layer).
var layerUnits = map[string]string{
	"serve.handler_p50_ms":                "ms",
	"serve.handler_p99_ms":                "ms",
	"serve.wire_p50_ms":                   "ms",
	"serve.queue_delay_avg_us":            "us",
	"serve.queue_delay_max_us":            "us",
	"serve.refused":                       "count",
	"serve.results_handler_p50_ms":        "ms",
	"stream.day_flush_p50_ms":             "ms",
	"stream.day_flush_p99_ms":             "ms",
	"stream.day_flush_s":                  "s",
	"stream.query_exec_p50_ms":            "ms",
	"stream.queries":                      "count",
	"stream.ingest_apply_s":               "s",
	"stream.snapshot_stall_max_ms":        "ms",
	"stream.capture_stall_max_ms":         "ms",
	"stream.captures":                     "count",
	"stream.compactions":                  "count",
	"checkpoint.fsyncs":                   "count",
	"checkpoint.fsync_p50_ms":             "ms",
	"checkpoint.fsync_p99_ms":             "ms",
	"checkpoint.wal_write_s":              "s",
	"checkpoint.snapshot_write_s":         "s",
	"checkpoint.wal_bytes_per_event":      "B/event",
	"checkpoint.snapshot_bytes_per_event": "B/event",
	"driver.send_lag_p99_ms":              "ms",
	"driver.ingest_error_ratio":           "ratio",
	"trace.overhead_pct":                  "%",
	"e2e.ingest_p99_ms":                   "ms",
	"e2e.sustainable_eps":                 "1/s",
}

// medianLayers reports each per-layer metric as its median over traced
// passes. Every metric is present; a layer a workload does not run reads 0.
func medianLayers(passes []map[string]float64) map[string]metric {
	out := map[string]metric{}
	for name, unit := range layerUnits {
		var vs []float64
		for _, p := range passes {
			vs = append(vs, p[name])
		}
		out[name] = metric{median(vs), unit}
	}
	return out
}

// streamLayers derives the service's per-layer numbers from the fault
// point spans of one pass and its run telemetry.
func streamLayers(wall time.Duration, d stream.DurabilityStats, spans []span) map[string]float64 {
	m := map[string]float64{}
	flush := durations(spans, spanDayFlush)
	_, m["stream.day_flush_p99_ms"] = tail(flush, 99)
	m["stream.day_flush_p50_ms"] = median(flush)
	m["stream.day_flush_s"] = sumSeconds(flush)
	queries := durations(spans, spanQuery)
	m["stream.query_exec_p50_ms"] = median(queries)
	m["stream.queries"] = float64(len(queries))
	ticks := sumSeconds(durations(spans, spanSnapshotTick))
	m["stream.ingest_apply_s"] = wall.Seconds() - m["stream.day_flush_s"] - ticks
	m["stream.snapshot_stall_max_ms"] = ms(d.MaxSnapshotStall)
	m["stream.capture_stall_max_ms"] = ms(d.MaxCaptureStall)
	m["stream.captures"] = float64(d.SnapshotCaptures)
	m["stream.compactions"] = float64(d.BaseCompactions)
	return m
}

// serveLayers adds the server, checkpoint and load-generator layers of one traced
// serve pass to its stream layers.
func serveLayers(in *inputs, r *serveResult, spans []span) map[string]float64 {
	m := streamLayers(r.wall, r.durability, spans)
	handler := map[uint64]time.Duration{} // client span id → handler time
	var events, results []float64
	for _, s := range spans {
		switch s.Name {
		case spanServeEvents:
			events = append(events, ms(s.dur()))
			handler[s.Parent] = s.dur()
		case spanServeResults:
			results = append(results, ms(s.dur()))
		}
	}
	var wire []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Name == spanClientEvents {
			wire = append(wire, ms(s.dur()-h))
		}
	}
	m["serve.handler_p50_ms"] = median(events)
	_, m["serve.handler_p99_ms"] = tail(events, 99)
	m["serve.wire_p50_ms"] = median(wire)
	m["serve.results_handler_p50_ms"] = median(results)
	m["serve.queue_delay_avg_us"] = float64(r.stats.AvgQueueDelayMicros)
	m["serve.queue_delay_max_us"] = float64(r.stats.MaxQueueDelayMicros)
	m["serve.refused"] = float64(r.stats.Backpressured + r.stats.Shed)

	fst := r.fs.stats()
	n := float64(len(in.ds.Events))
	m["checkpoint.fsyncs"] = float64(len(fst.fsyncMs))
	m["checkpoint.fsync_p50_ms"] = median(fst.fsyncMs)
	_, m["checkpoint.fsync_p99_ms"] = tail(fst.fsyncMs, 99)
	m["checkpoint.wal_write_s"] = fst.walWrite.Seconds()
	m["checkpoint.snapshot_write_s"] = fst.snapWrite.Seconds()
	m["checkpoint.wal_bytes_per_event"] = float64(fst.walBytes) / n
	m["checkpoint.snapshot_bytes_per_event"] = float64(fst.snapshotByte) / n

	_, m["driver.send_lag_p99_ms"] = tail(r.sendLagMs, 99)
	m["driver.ingest_error_ratio"] = float64(r.refused) / float64(max(r.attempts, 1))
	return m
}
