package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: the trace it generates from the
// seed, how the trace is cut into requests, and the rates it is offered.
// WORKLOADS.md records why each was chosen and what each layer's metrics
// should move on it.
type workloadDef struct {
	name  string
	serve bool // HTTP to an in-process server; otherwise in-process replay
	trace func(seed uint64) (*dataset.Dataset, error)
	size  func(seed uint64) batchSizer
	// ladder is the fixed rate ladder (events/s) for sustainable_eps; its
	// first rung is the nominal rate at which ingest latency is measured.
	ladder []float64
	// p99LimitMs is the latency limit a ladder rung must meet.
	p99LimitMs float64
}

// syntheticTrace is the day-sliced synthetic generator at its default
// scale: 5000 devices, 120 days, one querier with 10 products × 2
// batches of 500 conversions (about 20 queries).
func syntheticTrace(seed uint64) (*dataset.Dataset, error) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Seed = seed
	src, err := dataset.NewSynthetic(cfg)
	if err != nil {
		return nil, err
	}
	return dataset.Materialize(src), nil
}

// criteoTrace is a Criteo-shaped trace with 100 advertisers over a
// 40,000-device population. MinBatch is lowered from the paper's 350 so
// that at this size nearly every advertiser is a querier. The spread of
// per-advertiser impression densities is narrowed from 1.0 to 0.25: at
// 1.0 the largest advertiser's draw alone doubles the trace for some
// seeds, and the benchmark needs traces of one size. Events of the few
// advertisers too small to query are dropped: a server admits events only
// for registered queriers.
func criteoTrace(seed uint64) (*dataset.Dataset, error) {
	cfg := dataset.DefaultCriteoConfig()
	cfg.Seed = seed
	cfg.Advertisers = 100
	cfg.Users = 40_000
	cfg.TotalConversions = 70_000
	cfg.MinBatch = 100
	cfg.DensitySpread = 0.25
	ds, err := dataset.Criteo(cfg)
	if err != nil {
		return nil, err
	}
	queriers := map[events.Site]bool{}
	for _, a := range ds.Advertisers {
		queriers[a.Site] = true
	}
	ds.Events = slices.DeleteFunc(ds.Events, func(ev events.Event) bool { return !queriers[ev.Advertiser] })
	return ds, nil
}

var workloads = []workloadDef{
	{
		name:       "serve-small-batch",
		serve:      true,
		trace:      syntheticTrace,
		size:       func(uint64) batchSizer { return fixedSize(16) },
		ladder:     geometric(12_000, 1.08, 20),
		p99LimitMs: 200,
	},
	{
		name:       "replay-criteo",
		trace:      criteoTrace,
		size:       func(seed uint64) batchSizer { return uniformSize(seed, 256, 512) },
		ladder:     geometric(35_000, 1.06, 28),
		p99LimitMs: 50,
	},
}

// geometric returns n rates starting at lo, each ratio times the last,
// rounded to whole events per second.
func geometric(lo, ratio float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(lo * math.Pow(ratio, float64(i)))
	}
	return out
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// scenario is the run configuration every pass and the reference share.
// Serve workloads run durable: a checkpoint directory (set per pass), WAL
// group commit every 256 events and delta snapshots every 7 days, so a
// 200 means WAL-appended and applied.
func (w workloadDef) scenario(seed uint64) workload.Config {
	cfg := workload.Config{Seed: seed}
	if w.serve {
		cfg.SnapshotEveryDays = 7
		cfg.GroupCommitEvents = 256
	}
	return cfg
}
