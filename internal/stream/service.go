// Package stream is the online measurement service: it turns the repository's
// plan→generate→aggregate batch pipeline (internal/workload) into a
// long-running system that ingests day-stamped events as they arrive and
// fires each advertiser's summation query the moment its batch fills.
//
// Architecture (DESIGN.md §6):
//
//   - A dataset.Source delivers events in (Day, ID) order through a bounded
//     ingest queue. The queue is the service's backpressure valve: when
//     query execution falls behind, the producer blocks, so peak memory is
//     set by the queue capacity and the attribution-window retention
//     horizon — never by trace length.
//   - Ingestion is day-clocked. All of day d's events land in the event
//     store before any day-d query fires; queries only read windows ending
//     at or before d, so the generate stage's concurrent readers never
//     overlap the (single-writer) ingest phase and the store needs no read
//     locks.
//   - Queries due on the same day execute as one multiplexed super-batch:
//     their conversions concatenate in canonical (site, product, seq)
//     order, partition by device, and fan out across the worker pool over
//     core.Fleet. Aggregation then releases each query sequentially in the
//     same canonical order, drawing noise from the run's seeded stream.
//   - Retention: once no open batch's attribution window can reach below an
//     epoch, the event store evicts it (events.Database.EvictBefore), the
//     aggregation service retires the day's consumed nonces
//     (aggregation.Service.Compact), and — in Lean mode — the fleet
//     advances every device's retention floor.
//
// Equivalence contract: the canonical execution order (fireDay, site,
// product, seq) is exactly the batch engine's plan order, per-device
// operations serialize identically inside the super-batch, and noise streams
// are consumed in the same sequence — so a streaming run over a source is
// bit-identical to a batch run over the materialized dataset, at any
// parallelism and any queue size. internal/stream's equivalence tests hold
// the two implementations to that contract, in the spirit of showing an
// optimistic online system equivalent to its batch specification.
package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/aggregation"
	"repro/internal/budget"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stats"
)

// LatePolicy selects how the service treats a late event: one whose stamped
// day is already closed (strictly below the day clock) when it reaches the
// ingest path. The day a given event closes is data-dependent — day d closes
// the moment the first day->d' event (d' > d) is drained — so an event
// stamped with the current day is never late, even if it is the last event
// of that day.
type LatePolicy uint8

const (
	// LateReject treats a late event as a broken source and aborts the
	// run — the strict contract every clean, day-ordered source satisfies.
	// This is the default.
	LateReject LatePolicy = iota
	// LateDrop admits hostile and messy traffic: late events are dropped
	// at admission, counted in Run.EventsDropped, and never reach the
	// event store, the planner, or the budget ledgers. An event for an
	// already-evicted epoch is necessarily late (eviction only passes day
	// boundaries), so it takes the same drop path and can never resurrect
	// evicted state. Drops are WAL-logged like ingests, so crash recovery
	// replays the same admission decisions and the resume cursor stays
	// exact.
	LateDrop
)

// Config parameterizes one streaming service instance. The scenario knobs
// (epoch length, window, budgets, calibration, bias) have the same meaning
// as the batch engine's workload.Config; the service-only knobs tune the
// ingest queue and retention behaviour.
type Config struct {
	// Source supplies the event stream and the dataset metadata.
	Source dataset.Source
	// EpochDays is the on-device epoch length (7 by default).
	EpochDays int
	// WindowDays is the attribution window (30 by default).
	WindowDays int
	// EpsilonG is the per-epoch budget capacity ε^G.
	EpsilonG float64
	// Calibration derives each advertiser's requested ε. Ignored when
	// FixedEpsilon > 0.
	Calibration privacy.Calibration
	// FixedEpsilon, when positive, uses the same requested ε everywhere.
	FixedEpsilon float64
	// Bias, when non-nil, runs the Appendix F side query with every
	// report.
	Bias *core.BiasSpec
	// Seed drives the aggregation (and IPA-like) noise streams.
	Seed uint64
	// Parallelism bounds the worker pool for the multiplexed generate
	// stage. 0 selects GOMAXPROCS; results are bit-identical for every
	// value.
	Parallelism int
	// MaxQueriesPerProduct truncates each product's query schedule
	// (0 = run every full batch).
	MaxQueriesPerProduct int
	// Policy is the on-device loss policy; nil selects
	// core.CookieMonsterPolicy. Ignored when Central is set.
	Policy core.LossPolicy
	// Central, when true, runs the IPA-like centralized baseline: budget
	// is authorized per query at a population-wide filter and attribution
	// is computed on the full data.
	Central bool
	// LatePolicy selects the admission rule for events whose day has
	// already closed (LateReject aborts, LateDrop drops with a counter).
	// The policy shapes which events the run admits, so it is part of the
	// checkpoint scenario fingerprint.
	LatePolicy LatePolicy

	// QueueSize bounds the ingest queue (the backpressure window between
	// the source and the day clock). 0 selects a default of 1024 events.
	QueueSize int
	// Lean selects long-running-service retention: device filters below
	// the horizon are released (core.Fleet.AdvanceEpochFloor) and the
	// per-device-epoch requested-budget accounting behind the Fig. 4
	// metrics is skipped. Query results are bit-identical either way;
	// Lean trades post-run budget metrics for bounded resident state.
	Lean bool

	// CheckpointDir enables crash safety: every ingested event is logged
	// to a write-ahead log in this directory before it is applied, day
	// boundaries commit snapshots per SnapshotEveryDays, and Serve writes
	// a final snapshot on completion. ResumeFrom rebuilds a service from
	// the directory after a crash. Empty disables durability.
	CheckpointDir string
	// SnapshotEveryDays commits a snapshot generation (and rotates the WAL
	// to a fresh segment) at every N-th completed day while serving. 0
	// keeps only the WAL during the run — recovery then replays from the
	// stream's beginning (or the last explicit Checkpoint). Ignored
	// without CheckpointDir.
	SnapshotEveryDays int
	// SnapshotMode selects the cadence snapshot representation:
	// SnapshotModeDelta (the default) captures only the state dirtied
	// since the previous generation, chained to it by fingerprint, with
	// periodic base compaction; SnapshotModeFull captures the complete
	// state every time. Restores are bit-identical either way. Ignored
	// without CheckpointDir.
	SnapshotMode string
	// BaseEveryDeltas folds the delta chain into a fresh base after this
	// many deltas (default 8). Ignored in full mode.
	BaseEveryDeltas int
	// KeepGenerations retains the newest K intact base generations (with
	// the deltas and WAL segments above them) at GC time (default 2).
	KeepGenerations int
	// GroupCommitEvents, when positive, batches WAL fsyncs into group
	// commits: after this many appended events the service flushes the log
	// and signals a background syncer instead of fsyncing inline, so the
	// ingest thread never waits on the disk. 0 syncs only at day
	// boundaries and snapshot rotations, as before.
	GroupCommitEvents int
	// GroupCommitBytes, when positive, additionally requests a group
	// commit once this many WAL bytes accumulate — whichever threshold
	// trips first.
	GroupCommitBytes int
	// DurableFS overrides the filesystem the checkpoint store and WAL
	// segments go through — the disk-fault injection seam
	// (checkpoint.NewFaultFS). nil selects the real filesystem. Like
	// Parallelism, it cannot change what a run computes, only whether its
	// durable writes fail.
	DurableFS checkpoint.FS
	// FaultHook, when non-nil, observes every state transition (see
	// FaultPoint) and can return an error to simulate a crash there. Test
	// instrumentation; nil in production.
	FaultHook FaultHook

	// AdmitObserver, when non-nil, observes every admission decision the
	// service commits: it fires once per drained event, after the event's
	// WAL record was appended (live path) and the decision applied, with
	// dropped reporting a LateDrop rejection. It also fires for every event
	// carried by a restored snapshot, for every WAL record replayed during
	// ResumeFrom, and (with dropped=true) for every restored late-drop
	// mark — the latter carry only the admission identity (Device, Day,
	// ID), since a dropped event's payload never reaches durable state —
	// so an external admission layer (internal/serve) can rebuild its
	// per-device dedupe cursors from the durable state.
	// Execution-only: never part of the checkpoint fingerprint or the
	// equivalence digests. The observer runs on the service goroutine and
	// must not block.
	AdmitObserver func(ev events.Event, dropped bool)
	// ResultObserver, when non-nil, observes every released query result in
	// canonical order, including results restored from a snapshot and
	// results re-executed during WAL replay. Same execution-only contract
	// as AdmitObserver.
	ResultObserver func(res Result)
	// LiveSource marks the source as an admission-filtered live feed (a
	// network ingest tier) rather than a replayable trace: a resumed
	// service must not skip a source prefix by count, because the feed
	// delivers only events the durable state does not already cover — the
	// serving layer's (device, seq) dedupe guarantees it. Execution-only.
	LiveSource bool
}

// Snapshot representations for Config.SnapshotMode.
const (
	SnapshotModeDelta = "delta"
	SnapshotModeFull  = "full"
)

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.EpochDays == 0 {
		c.EpochDays = 7
	}
	if c.WindowDays == 0 {
		c.WindowDays = 30
	}
	if c.EpsilonG == 0 {
		c.EpsilonG = 1
	}
	if c.Calibration == (privacy.Calibration{}) {
		c.Calibration = privacy.DefaultCalibration
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize == 0 {
		c.QueueSize = 1024
	}
	if c.Policy == nil && !c.Central {
		c.Policy = core.CookieMonsterPolicy{}
	}
	if c.SnapshotMode == "" {
		c.SnapshotMode = SnapshotModeDelta
	}
	if c.BaseEveryDeltas == 0 {
		c.BaseEveryDeltas = 8
	}
	if c.KeepGenerations == 0 {
		c.KeepGenerations = 2
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Source == nil:
		return fmt.Errorf("stream: nil source")
	case c.EpochDays <= 0 || c.WindowDays <= 0:
		return fmt.Errorf("stream: non-positive epoch or window length")
	case c.EpsilonG < 0:
		return fmt.Errorf("stream: negative capacity")
	case c.FixedEpsilon < 0:
		return fmt.Errorf("stream: negative fixed epsilon")
	case c.Parallelism < 0:
		return fmt.Errorf("stream: negative parallelism")
	case c.QueueSize < 0:
		return fmt.Errorf("stream: negative queue size")
	case c.SnapshotEveryDays < 0:
		return fmt.Errorf("stream: negative snapshot cadence")
	case c.SnapshotEveryDays > 0 && c.CheckpointDir == "":
		return fmt.Errorf("stream: snapshot cadence without checkpoint directory")
	case c.SnapshotMode != SnapshotModeDelta && c.SnapshotMode != SnapshotModeFull:
		return fmt.Errorf("stream: unknown snapshot mode %q", c.SnapshotMode)
	case c.BaseEveryDeltas < 0:
		return fmt.Errorf("stream: negative base compaction cadence")
	case c.KeepGenerations < 0:
		return fmt.Errorf("stream: negative generation retention")
	case c.GroupCommitEvents < 0 || c.GroupCommitBytes < 0:
		return fmt.Errorf("stream: negative group-commit threshold")
	}
	return nil
}

// Result records one summation query's outcome. Fields mirror the batch
// engine's QueryResult one-for-one; the equivalence tests compare them
// bit-for-bit.
type Result struct {
	Querier  events.Site
	Product  string
	Index    int
	Batch    int
	Epsilon  float64
	Executed bool
	Truth    float64
	Estimate float64
	RMSRE    float64
	// FireDay is the day the batch filled and the query ran — streaming
	// observability the batch engine derives from its plan.
	FireDay        int
	DeniedReports  int
	BiasedReports  int
	BiasEstimate   float64
	FirstEpoch     events.Epoch
	LastEpoch      events.Epoch
	AvgBudgetAfter float64
}

// DevEpoch identifies a requested device-epoch in the Run's accounting.
type DevEpoch struct {
	Device events.DeviceID
	Epoch  events.Epoch
}

// Run is a completed streaming execution: per-query results plus the final
// budget state and the service's ingest/retention telemetry.
type Run struct {
	Meta        dataset.Meta
	Results     []Result
	TotalEpochs int

	// Fleet is the device registry with its final filter state (for
	// on-device runs).
	Fleet *core.Fleet
	// Central is the population-wide budgeter (for Central runs).
	Central *budget.IPALike
	// Requested records each device-epoch touched by a query window and
	// the queriers that touched it (nil in Lean mode).
	Requested *RequestedSet
	// TotalConsumed is the summed consumed privacy loss across all
	// device-epochs.
	TotalConsumed float64
	// FirstSpanEpoch and LastSpanEpoch delimit every epoch a query window
	// can touch.
	FirstSpanEpoch, LastSpanEpoch events.Epoch

	// EventsIngested counts events drained from the source — accepted and
	// dropped alike, so it is also the WAL sequence cursor and the resume
	// skip count.
	EventsIngested int
	// EventsDropped counts late events dropped at admission under
	// Config.LatePolicy == LateDrop (always 0 under LateReject, which
	// aborts instead).
	EventsDropped int
	// PeakQueue is the deepest the ingest queue got — how close the
	// service came to exerting backpressure.
	PeakQueue int
	// MaxQueueDelay and AvgQueueDelay measure ingest-queue sojourn time:
	// how long events sat buffered between the producer's enqueue and the
	// day clock draining them. Sustained growth here is the overload
	// signal the serving layer's shedding gate acts on (DESIGN.md §14).
	// Observability only — never part of the equivalence digests.
	MaxQueueDelay time.Duration
	AvgQueueDelay time.Duration
	// PeakResidentRecords is the maximum number of device-epoch records
	// resident in the event store at any day boundary; with retention on,
	// it tracks the attribution window rather than the trace length.
	PeakResidentRecords int
	// EvictedRecords counts device-epoch records reclaimed by retention.
	EvictedRecords int
	// RetiredNonces counts replay-protection entries reclaimed by
	// aggregation compaction.
	RetiredNonces int
	// ReleasedFilters counts device filters reclaimed in Lean mode.
	ReleasedFilters int

	// Durability is the run's checkpoint/WAL telemetry (zero without
	// Config.CheckpointDir). It is observability only — never part of the
	// durable state or the equivalence digests.
	Durability DurabilityStats
}

// DurabilityStats measures the durability machinery's cost and behaviour
// over one run.
type DurabilityStats struct {
	// SnapshotCaptures counts cadence snapshot captures (delta or full).
	SnapshotCaptures int
	// MaxSnapshotStall is the longest the ingest thread was paused by one
	// cadence tick: harvesting the previous generation's commit, capturing
	// state, and rotating the WAL. The serialized write itself happens off
	// the ingest thread and does not stall it.
	MaxSnapshotStall time.Duration
	// MaxCaptureStall is the capture-and-rotate portion of the worst tick,
	// excluding the wait for the background writer's previous commit. The
	// difference between the two maxima is writer backpressure (commits or
	// compactions outrunning the cadence), not capture cost.
	MaxCaptureStall time.Duration
	// DeltaBytes and BaseBytes total the serialized snapshot payload bytes
	// committed by kind (bases include initial, compacted, and final).
	DeltaBytes int64
	BaseBytes  int64
	// BaseCompactions counts delta chains folded into fresh bases.
	BaseCompactions int
	// GroupCommits counts asynchronous WAL group commits; GroupCommitBytes
	// and MaxGroupCommitBytes total and bound the bytes per batch.
	GroupCommits        int
	GroupCommitBytes    int64
	MaxGroupCommitBytes int
	// RecoveryFallbacks counts the downgrades recovery took on the way to
	// intact state: generation files skipped as unusable plus WAL replays
	// stopped at a sequence gap. 0 on a clean resume.
	RecoveryFallbacks int
}

// Service is the online measurement service. Create one with New, then
// drive it to completion with Serve.
type Service struct {
	cfg  Config
	meta dataset.Meta

	db       *events.Database
	fleet    *core.Fleet
	central  *budget.IPALike
	agg      *aggregation.Service
	aggNoise *stats.RNG
	ipaNoise *stats.RNG
	plan     *planner
	run      *Run

	curDay     int
	started    bool
	due        []*pendingQuery
	nextIndex  int
	evictFloor events.Epoch

	// dropMarks is the per-device late-drop admission high-water mark:
	// the (day, id) of each device's newest dropped event, kept only while
	// no later event for that device reaches the store. A dropped event is
	// a durable admission decision that leaves no trace in the event store,
	// so without these marks a snapshot that subsumes the WAL would lose
	// the decision and an external admission layer (internal/serve) would
	// regress its dedupe cursor across suspend/resume. Snapshot state.
	dropMarks map[events.DeviceID]dropMark

	// gen and the day buffers are the generate stage's cross-day reusable
	// state: grouping scratch, per-worker multi-request workspaces, and the
	// super-batch concatenation/output slices (see generateDay).
	gen      Generator
	dayConvs []events.Event
	dayReqs  []*core.Request
	dayOut   []convOutput

	// Durability state (nil/zero without Config.CheckpointDir).
	wal         *checkpoint.WAL
	walBuf      []byte // reused WAL record encoding buffer
	lastSnapDay int
	// store is the generation store; headGen/headFP identify the chain
	// head new deltas link onto, and nextGen numbers the next generation
	// or WAL segment (monotonic across kinds, never reused).
	store   *checkpoint.Store
	headGen uint64
	headFP  uint32
	nextGen uint64
	// fold is the chain at headGen folded into its full state, held until
	// openDurability hands it to the writer (which then owns it).
	fold *chainFold
	// writer commits captured snapshots off the ingest thread; snapPending
	// marks an enqueued capture whose result has not been harvested yet.
	writer      *snapWriter
	snapPending bool
	// gcEvents/gcBytes accumulate WAL appends toward the next group
	// commit.
	gcEvents int
	gcBytes  int
	// Dirty-state baselines for delta capture (delta.go): per-device
	// ledger versions and the results high-water mark at the previous
	// capture (the requested set tracks its own dirty keys).
	ledgerVers  map[events.DeviceID]uint64
	resultsMark int
	// skip counts source events already covered by the restored durable
	// state; Serve discards that prefix before going live (the source
	// delivers events in a deterministic order, so skip-by-count is exact).
	skip int
	// resumed marks a service built by ResumeFrom: Serve continues the
	// checkpoint directory's run instead of reinitializing it.
	resumed bool
	// replaying is set while ResumeFrom feeds WAL records through the
	// ingest path: no WAL writes, no snapshots, no fault hooks.
	replaying bool
}

// New builds a service for cfg without consuming the source.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	meta := cfg.Source.Meta()
	aggNoise := stats.Stream(cfg.Seed, "aggregation-noise")
	s := &Service{
		cfg:      cfg,
		meta:     meta,
		db:       events.NewDatabase(),
		agg:      aggregation.NewService(aggNoise),
		aggNoise: aggNoise,
		plan:     newPlanner(meta, cfg.Calibration, cfg.FixedEpsilon, cfg.MaxQueriesPerProduct),
		run: &Run{
			Meta:        meta,
			TotalEpochs: meta.Epochs(cfg.EpochDays),
		},
		evictFloor: events.Epoch(-1 << 31),
		dropMarks:  make(map[events.DeviceID]dropMark),
	}
	policy := cfg.Policy
	if policy == nil {
		// Central runs never charge per-device policies; give the fleet
		// a harmless default in case a device is ever instantiated.
		policy = core.CookieMonsterPolicy{}
	}
	db, epsG := s.db, cfg.EpsilonG
	s.fleet = core.NewFleet(0, func(id events.DeviceID) *core.Device {
		return core.NewDevice(id, db, epsG, policy)
	})
	s.run.Fleet = s.fleet
	if cfg.Central {
		s.central = budget.NewIPALike(cfg.EpsilonG)
		s.ipaNoise = stats.Stream(cfg.Seed, "ipa-noise")
		s.run.Central = s.central
	}
	if !cfg.Lean {
		s.run.Requested = NewRequestedSet()
	}
	s.run.FirstSpanEpoch = events.EpochOfDay(1-cfg.WindowDays, cfg.EpochDays)
	s.run.LastSpanEpoch = events.EpochOfDay(meta.DurationDays-1, cfg.EpochDays)
	if s.run.LastSpanEpoch < s.run.FirstSpanEpoch {
		s.run.LastSpanEpoch = s.run.FirstSpanEpoch
	}
	return s, nil
}

// Serve drains the source to completion: a producer goroutine feeds the
// bounded ingest queue while the service's day clock ingests events, fires
// due queries at each day boundary, and advances retention. It returns the
// completed run. Serve is single-shot; the service cannot be reused.
//
// With Config.CheckpointDir set, every event is logged ahead of being
// applied, snapshots commit on the SnapshotEveryDays cadence, and a final
// snapshot commits on completion. On a resumed service (ResumeFrom), the
// source prefix the durable state already covers is skipped before the day
// clock goes live.
func (s *Service) Serve() (run *Run, err error) {
	if s.cfg.CheckpointDir != "" {
		if err := s.openDurability(); err != nil {
			return nil, err
		}
		defer func() {
			if s.writer != nil {
				// The writer goroutine must not outlive the service. On
				// error paths an in-flight commit is simply allowed to
				// land — one of the legal outcomes of the crash being
				// simulated — and its result discarded.
				if s.snapPending {
					<-s.writer.results
					s.snapPending = false
				}
				s.writer.close()
				s.writer = nil
			}
			if s.wal == nil {
				return
			}
			// An injected fault is a simulated kill: drop the buffered WAL
			// tail rather than flushing it, so the directory is left no
			// more durable than a real crash would leave it (and the
			// recovery harness genuinely exercises lost-tail recovery).
			var fe *FaultError
			if errors.As(err, &fe) {
				s.wal.Abandon()
			} else if cerr := s.wal.Close(); cerr != nil && err == nil {
				run, err = nil, cerr
			}
			s.wal = nil
		}()
	}

	queue := make(chan events.Event, s.cfg.QueueSize)
	// times runs in lockstep with queue, carrying each event's enqueue
	// instant so the drain loop can measure sojourn time — the queue-delay
	// signal the serving layer's overload shedding keys on.
	times := make(chan int64, s.cfg.QueueSize)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(queue)
		for {
			ev, ok := s.cfg.Source.Next()
			if !ok {
				return
			}
			t := time.Now().UnixNano()
			select {
			case queue <- ev:
			case <-done:
				return
			}
			select {
			case times <- t:
			case <-done:
				return
			}
		}
	}()

	skip := s.skip
	var delaySum, delayCount int64
	for ev := range queue {
		enq := <-times
		if d := time.Now().UnixNano() - enq; d > 0 {
			if time.Duration(d) > s.run.MaxQueueDelay {
				s.run.MaxQueueDelay = time.Duration(d)
			}
			delaySum += d
			delayCount++
		}
		if skip > 0 {
			skip--
			continue
		}
		// Occupancy after the receive: how much buffered backlog the
		// producer built up while the day clock was busy.
		if depth := len(queue); depth > s.run.PeakQueue {
			s.run.PeakQueue = depth
		}
		if err := s.step(ev); err != nil {
			return nil, err
		}
	}
	if delayCount > 0 {
		s.run.AvgQueueDelay = time.Duration(delaySum / delayCount)
	}
	// A suspended source ended mid-trace (graceful shutdown of a live
	// feed): the in-progress day must NOT flush — its remaining events
	// arrive after resume, and day-d queries only fire once all of day d is
	// in the store. A drained source reached the end of its trace, so the
	// final day closes out exactly as the batch engine would.
	suspended := false
	if sus, ok := s.cfg.Source.(dataset.Suspender); ok {
		suspended = sus.Suspended()
	}
	if s.started && !suspended {
		if err := s.endOfDay(s.curDay + 1); err != nil {
			return nil, err
		}
	}
	if s.wal != nil {
		// Final commit: harvest any in-flight generation, sync the log (so
		// a crash during the final base write still recovers everything),
		// then write the run's full state as a fresh base and collect the
		// generations it supersedes. A suspended run takes the same path —
		// drained queue, synced log, final generation — unless a filled
		// batch is awaiting its day flush: that state is WAL-derived only
		// (snapshots are day-boundary states), so the suspend keeps the
		// synced log and recovery rebuilds the batch by replay.
		if err := s.harvestSnap(); err != nil {
			return nil, err
		}
		if err := s.wal.Sync(); err != nil {
			return nil, err
		}
		if !suspended || len(s.due) == 0 {
			gen := s.nextGen
			s.nextGen++
			if err := s.commitBase(gen); err != nil {
				return nil, err
			}
			if err := s.store.GC(s.cfg.KeepGenerations); err != nil {
				return nil, err
			}
		}
	}
	return s.run, nil
}

// openDurability prepares the generation store, the initial base (fresh
// runs), the WAL segment, and the background writer for one Serve.
func (s *Service) openDurability() error {
	if s.store == nil {
		s.store = checkpoint.NewStore(s.cfg.CheckpointDir, s.cfg.DurableFS)
	}
	walGen := s.nextGen
	if !s.resumed {
		// A fresh run owns the directory: clear leftovers from any
		// previous run and commit an initial base whose scenario
		// fingerprint every later ResumeFrom must match, even before the
		// first cadence snapshot.
		if err := s.store.Reset(); err != nil {
			return err
		}
		if err := s.commitBase(1); err != nil {
			return err
		}
		// The initial base and its WAL segment share generation 1: the
		// segment holds exactly the events ingested after that capture.
		walGen, s.nextGen = 1, 2
		if s.cfg.SnapshotMode == SnapshotModeDelta {
			s.resetDirtyTracking()
		}
	} else {
		// A resumed run appends to a segment number no crashed process
		// ever wrote — an old segment's tail may be torn, and recovery
		// already accounted for exactly what is durable in it.
		s.nextGen++
		if s.headGen == 0 {
			// Recovery refused every generation on disk and rebuilt state
			// from WAL replay and the source alone. Re-anchor the chain
			// with a fresh full base: deltas need an intact parent, and
			// the next recovery must not depend on a second full replay.
			if err := s.commitBase(walGen); err != nil {
				return err
			}
			// The re-anchor base subsumes everything recovery replayed, so
			// the dirty marks taken before replay are stale: without a
			// reset the first delta would re-carry state the base already
			// holds, and append-only sections (Results) would duplicate on
			// fold.
			if s.cfg.SnapshotMode == SnapshotModeDelta {
				s.resetDirtyTracking()
			}
		}
	}
	wal, err := s.store.OpenWALSegment(walGen)
	if err != nil {
		return err
	}
	s.wal = wal
	if s.cfg.GroupCommitEvents > 0 || s.cfg.GroupCommitBytes > 0 {
		s.wal.StartGroupCommit()
	}
	s.writer = newSnapWriter(s.store, s.cfg.BaseEveryDeltas, s.cfg.KeepGenerations, s.fold)
	s.fold = nil
	return nil
}

// commitBase writes the service's full state to its store as a fresh base
// generation and makes it the chain head, with the fold the writer will
// continue from.
func (s *Service) commitBase(gen uint64) error {
	snap := s.snapshot()
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("stream: encoding snapshot: %w", err)
	}
	fp, err := s.store.WriteBase(gen, payload)
	if err != nil {
		return err
	}
	s.headGen, s.headFP = gen, fp
	s.fold = newChainFold(snap)
	s.run.Durability.BaseBytes += int64(len(payload))
	return nil
}

// harvestSnap waits for the background writer's in-flight commit, if any,
// folds its telemetry into the run, and fires the commit fault points.
func (s *Service) harvestSnap() error {
	if s.writer == nil || !s.snapPending {
		return nil
	}
	res := <-s.writer.results
	s.snapPending = false
	if res.err != nil {
		return res.err
	}
	s.headGen, s.headFP = res.gen, res.fp
	if res.base {
		s.run.Durability.BaseBytes += int64(res.bytes)
	} else {
		s.run.Durability.DeltaBytes += int64(res.bytes)
	}
	if res.compacted {
		s.run.Durability.BaseCompactions++
		s.run.Durability.BaseBytes += int64(res.compactBytes)
	}
	if err := s.fault(PointSnapshotCommitted); err != nil {
		return err
	}
	if res.compacted {
		if err := s.fault(PointBaseCompacted); err != nil {
			return err
		}
	}
	return nil
}

// step advances the day clock for one event and applies it — the single
// ingest path shared by live serving and WAL replay. On the live path the
// event reaches the write-ahead log before any in-memory state changes.
func (s *Service) step(ev events.Event) error {
	if !s.started {
		s.started = true
		s.curDay = ev.Day
		s.lastSnapDay = ev.Day
	}
	if ev.Day < s.curDay {
		if s.cfg.LatePolicy != LateDrop {
			return fmt.Errorf("stream: source out of order: day %d after day %d",
				ev.Day, s.curDay)
		}
		// Late drop: the admission decision is durable — WAL-logged and
		// counted against the drain cursor like an accepted event, so
		// replay re-drops it at the same sequence number — but the event
		// itself never touches the event store, the planner, or (for an
		// evicted epoch) any state retention already reclaimed.
		if err := s.logWAL(ev); err != nil {
			return err
		}
		s.run.EventsIngested++
		s.run.EventsDropped++
		if m, ok := s.dropMarks[ev.Device]; !ok || m.beforeEvent(ev) {
			s.dropMarks[ev.Device] = dropMark{Day: ev.Day, ID: ev.ID}
		}
		if err := s.fault(PointEventIngested); err != nil {
			return err
		}
		s.observeAdmit(ev, true)
		return nil
	}
	if ev.Day > s.curDay {
		if err := s.endOfDay(ev.Day); err != nil {
			return err
		}
		s.curDay = ev.Day
	}
	if err := s.logWAL(ev); err != nil {
		return err
	}
	if len(s.dropMarks) != 0 {
		// A newer event reached the store, so the store itself now carries
		// this device's admission high-water mark; the drop mark is spent.
		if m, ok := s.dropMarks[ev.Device]; ok && m.beforeEvent(ev) {
			delete(s.dropMarks, ev.Device)
		}
	}
	s.ingest(ev)
	if err := s.fault(PointEventIngested); err != nil {
		return err
	}
	s.observeAdmit(ev, false)
	return nil
}

// dropMark is one device's newest late-drop admission: the durable
// (day, id) high-water mark of a decision the event store cannot carry.
type dropMark struct {
	Day int
	ID  events.EventID
}

// beforeEvent reports whether the mark precedes ev in (Day, ID) admission
// order.
func (m dropMark) beforeEvent(ev events.Event) bool {
	return m.Day < ev.Day || (m.Day == ev.Day && m.ID < ev.ID)
}

// observeAdmit notifies the configured admission observer. It fires after
// the fault point, so a simulated crash at PointEventIngested is a crash
// between the WAL append and the externally visible acknowledgement — the
// regime the serving layer's idempotent-retry test exercises.
func (s *Service) observeAdmit(ev events.Event, dropped bool) {
	if s.cfg.AdmitObserver != nil {
		s.cfg.AdmitObserver(ev, dropped)
	}
}

// observeResult notifies the configured result observer.
func (s *Service) observeResult(res Result) {
	if s.cfg.ResultObserver != nil {
		s.cfg.ResultObserver(res)
	}
}

// logWAL appends one drained event to the write-ahead log on the live path
// (no-op without durability or during replay), tagged with its drain
// sequence number. With group commit configured, crossing either threshold
// flushes the batch and signals the background syncer instead of fsyncing
// inline.
func (s *Service) logWAL(ev events.Event) error {
	if s.wal == nil || s.replaying {
		return nil
	}
	s.walBuf = encodeWALRecord(s.walBuf, s.run.EventsIngested, ev)
	if err := s.wal.Append(s.walBuf); err != nil {
		return err
	}
	if s.cfg.GroupCommitEvents <= 0 && s.cfg.GroupCommitBytes <= 0 {
		return nil
	}
	s.gcEvents++
	s.gcBytes += len(s.walBuf) + 8
	if (s.cfg.GroupCommitEvents > 0 && s.gcEvents >= s.cfg.GroupCommitEvents) ||
		(s.cfg.GroupCommitBytes > 0 && s.gcBytes >= s.cfg.GroupCommitBytes) {
		if err := s.wal.RequestSync(); err != nil {
			return err
		}
		d := &s.run.Durability
		d.GroupCommits++
		d.GroupCommitBytes += int64(s.gcBytes)
		if s.gcBytes > d.MaxGroupCommitBytes {
			d.MaxGroupCommitBytes = s.gcBytes
		}
		s.gcEvents, s.gcBytes = 0, 0
		return s.fault(PointGroupCommit)
	}
	return nil
}

// ingest records one event and routes conversions to the planner.
func (s *Service) ingest(ev events.Event) {
	s.db.Record(events.EpochOfDay(ev.Day, s.cfg.EpochDays), ev)
	s.run.EventsIngested++
	if ev.IsConversion() {
		if q := s.plan.add(ev); q != nil {
			s.due = append(s.due, q)
		}
	}
}

// endOfDay closes out the current day before advancing to nextDay: it fires
// every query whose batch filled today, then advances the retention horizon
// now that those batches' windows are settled, and — on the snapshot
// cadence — commits a checkpoint and rotates the WAL.
func (s *Service) endOfDay(nextDay int) error {
	if err := s.fault(PointDayEnd); err != nil {
		return err
	}
	if err := s.flushDue(); err != nil {
		return err
	}
	if err := s.fault(PointDayFlushed); err != nil {
		return err
	}
	s.advanceRetention(nextDay)
	if err := s.fault(PointRetentionAdvanced); err != nil {
		return err
	}
	if s.wal != nil && !s.replaying && s.cfg.SnapshotEveryDays > 0 &&
		s.curDay-s.lastSnapDay >= s.cfg.SnapshotEveryDays {
		s.lastSnapDay = s.curDay
		if err := s.rotateCheckpoint(); err != nil {
			return err
		}
	}
	return nil
}

// rotateCheckpoint is the cadence tick: harvest the previous generation's
// commit, capture this one (dirty state in delta mode, everything in full
// mode), rotate the WAL to the capture's numbered segment, and hand the
// capture to the background writer. Only the capture and rotation pause
// ingest — serialization and fsync happen off the ingest thread.
//
// Order matters for crash safety: the old segment syncs before the capture
// is enqueued, so by the time the new generation can exist on disk, every
// event below its cursor is durable. A crash leaves either the old state
// (recover from the previous generation, replaying the synced segment) or
// both the generation and the stale records (the replay cursor skips the
// overlap) — never a generation whose history is missing.
func (s *Service) rotateCheckpoint() error {
	start := time.Now()
	if err := s.harvestSnap(); err != nil {
		return err
	}
	capStart := time.Now()
	gen := s.nextGen
	s.nextGen++
	job := snapJob{gen: gen, parentFP: s.headFP}
	if s.cfg.SnapshotMode == SnapshotModeFull {
		job.base = true
		job.snap = s.snapshot()
	} else {
		job.snap = s.captureDelta()
	}
	s.run.Durability.SnapshotCaptures++
	if err := s.wal.Sync(); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	s.wal = nil
	wal, err := s.store.OpenWALSegment(gen)
	if err != nil {
		return err
	}
	s.wal = wal
	if s.cfg.GroupCommitEvents > 0 || s.cfg.GroupCommitBytes > 0 {
		s.wal.StartGroupCommit()
	}
	s.gcEvents, s.gcBytes = 0, 0
	now := time.Now()
	if stall := now.Sub(start); stall > s.run.Durability.MaxSnapshotStall {
		s.run.Durability.MaxSnapshotStall = stall
	}
	if stall := now.Sub(capStart); stall > s.run.Durability.MaxCaptureStall {
		s.run.Durability.MaxCaptureStall = stall
	}
	if err := s.fault(PointDeltaCaptured); err != nil {
		return err
	}
	s.writer.enqueue(job)
	s.snapPending = true
	return nil
}

// advanceRetention computes the oldest epoch any future query window can
// reach — bounded by the earliest still-pending conversion and the next
// ingest day — and evicts everything below it from the event store, the
// replay-protection set, and (in Lean mode) the device filters.
func (s *Service) advanceRetention(nextDay int) {
	if n := s.db.NumRecords(); n > s.run.PeakResidentRecords {
		s.run.PeakResidentRecords = n
	}
	minLive := nextDay
	if d, ok := s.plan.minPendingDay(); ok && d < minLive {
		minLive = d
	}
	floor := events.EpochOfDay(minLive-s.cfg.WindowDays+1, s.cfg.EpochDays)
	if floor <= s.evictFloor {
		return
	}
	s.evictFloor = floor
	s.run.EvictedRecords += s.db.EvictBefore(floor)
	if s.cfg.Lean {
		s.run.ReleasedFilters += s.fleet.AdvanceEpochFloor(floor)
	}
}
