package workload

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// This file is the thin-client face of the online measurement service: the
// scenario vocabulary (Config, System, QueryResult, Run and its metrics)
// stays here, while internal/stream owns ingestion, day-clocked scheduling
// and multiplexed execution. ExecuteStream translates a workload
// configuration into a service configuration, drives the service over the
// dataset's event stream, and folds the service's run back into the same
// Run type the batch engine produces — so every experiment harness and
// metric works identically in either mode.
//
// Execute (run.go) remains the batch *specification*: an independent
// implementation that materializes the trace, plans globally, and executes
// query by query. The streaming service is held equivalent to it bit for
// bit by the tests in internal/stream.

// ExecuteStream runs the full workload under cfg through the streaming
// service, ingesting the dataset as a day-ordered event stream instead of
// materializing it. Results are bit-identical to Execute for the same
// configuration, at any Parallelism.
func ExecuteStream(cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return ExecuteSource(cfg, cfg.Dataset.Stream())
}

// ExecuteSource runs the workload's scenario over an arbitrary event
// source — a materialized dataset's stream, or a generator-backed source
// whose trace is never held in memory. The scenario's population, duration
// and advertisers come from the source's metadata; a nil cfg.Dataset is
// replaced by a metadata-only view of them so the returned Run's metrics
// (population averages, per-pair CDFs) work without an event log.
func ExecuteSource(cfg Config, src dataset.Source) (*Run, error) {
	if cfg.Dataset == nil {
		m := src.Meta()
		cfg.Dataset = &dataset.Dataset{
			Name:              m.Name,
			PopulationDevices: m.PopulationDevices,
			DurationDays:      m.DurationDays,
			Advertisers:       m.Advertisers,
		}
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	scfg := stream.Config{
		Source:               src,
		EpochDays:            cfg.EpochDays,
		WindowDays:           cfg.WindowDays,
		EpsilonG:             cfg.EpsilonG,
		Calibration:          cfg.Calibration,
		FixedEpsilon:         cfg.FixedEpsilon,
		Bias:                 cfg.Bias,
		Seed:                 cfg.Seed,
		Parallelism:          cfg.Parallelism,
		MaxQueriesPerProduct: cfg.MaxQueriesPerProduct,
		CheckpointDir:        cfg.CheckpointDir,
		SnapshotEveryDays:    cfg.SnapshotEveryDays,
		SnapshotMode:         cfg.SnapshotMode,
		BaseEveryDeltas:      cfg.BaseEveryDeltas,
		KeepGenerations:      cfg.KeepGenerations,
		GroupCommitEvents:    cfg.GroupCommitEvents,
		GroupCommitBytes:     cfg.GroupCommitBytes,
		DurableFS:            cfg.DurableFS,
		FaultHook:            cfg.FaultHook,
		AdmitObserver:        cfg.AdmitObserver,
		ResultObserver:       cfg.ResultObserver,
		LiveSource:           cfg.LiveSource,
	}
	if cfg.DropLate {
		scfg.LatePolicy = stream.LateDrop
	}
	switch cfg.System {
	case IPALike:
		scfg.Central = true
	default:
		scfg.Policy = cfg.PolicyOverride
		if scfg.Policy == nil && cfg.System == ARALike {
			scfg.Policy = core.ARALikePolicy{}
		}
		// CookieMonster is the service's default policy.
	}
	var svc *stream.Service
	var err error
	if cfg.Resume {
		// Recovery: restore the checkpoint directory's durable state, then
		// continue from the source as if never interrupted.
		svc, err = stream.ResumeFrom(scfg, cfg.CheckpointDir)
	} else {
		svc, err = stream.New(scfg)
	}
	if err != nil {
		return nil, err
	}
	srun, err := svc.Serve()
	if err != nil {
		return nil, err
	}
	return RunFromStream(cfg, srun), nil
}

// RunFromStream folds a completed streaming run into the workload's Run
// shape, field by field, preserving bit-identity with the batch engine.
// The serving layer uses it to fold a network-fed service's run into the
// same digestable shape every in-process run produces.
func RunFromStream(cfg Config, srun *stream.Run) *Run {
	r := &Run{
		Config:         cfg,
		TotalEpochs:    srun.TotalEpochs,
		EventsIngested: srun.EventsIngested,
		EventsDropped:  srun.EventsDropped,
		Durability:     srun.Durability,
		MaxQueueDelay:  srun.MaxQueueDelay,
		AvgQueueDelay:  srun.AvgQueueDelay,
		fleet:          srun.Fleet,
		totalConsumed:  srun.TotalConsumed,
		firstSpanEpoch: srun.FirstSpanEpoch,
		lastSpanEpoch:  srun.LastSpanEpoch,
		requested:      srun.Requested,
		central:        srun.Central,
	}
	r.Results = make([]QueryResult, len(srun.Results))
	for i, sr := range srun.Results {
		r.Results[i] = QueryResult{
			Querier:        sr.Querier,
			Product:        sr.Product,
			Index:          sr.Index,
			Batch:          sr.Batch,
			Epsilon:        sr.Epsilon,
			Executed:       sr.Executed,
			Truth:          sr.Truth,
			Estimate:       sr.Estimate,
			RMSRE:          sr.RMSRE,
			DeniedReports:  sr.DeniedReports,
			BiasedReports:  sr.BiasedReports,
			BiasEstimate:   sr.BiasEstimate,
			FirstEpoch:     sr.FirstEpoch,
			LastEpoch:      sr.LastEpoch,
			avgBudgetAfter: sr.AvgBudgetAfter,
		}
	}
	return r
}
