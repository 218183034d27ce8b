package stream

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/events"
)

// Crash-safe checkpoint/restore for the streaming service (DESIGN.md §8,
// §12).
//
// The durable state is a chain of snapshot generations (a full base plus
// incremental deltas, see delta.go) and numbered write-ahead-log segments,
// all owned by internal/checkpoint's CRC-guarded formats:
//
//   - A full snapshot captures the service's complete state at a day
//     boundary:
//     every device's budget-ledger lanes, the fleet's retention floor, the
//     live device-epoch records of the event store, the incremental
//     planner's cursor (per-stream pending conversions, sequence numbers,
//     caps), the aggregation service's nonce watermark and consumed set,
//     both noise-stream RNG states, the central budgeter (IPA-like runs),
//     and the run's results and accumulators. Scalar floats are serialized
//     as IEEE-754 bit patterns, so restore is bit-exact by construction
//     (including the NaN RMSRE of rejected queries).
//
//   - The WAL records every ingested event ahead of applying it, tagged
//     with its global ingest sequence number.
//
// Recovery = truncate + deterministic replay: ResumeFrom restores the
// snapshot, replays the WAL's events through the ordinary ingest path
// (re-executing any day flush the replay crosses — same ledger state, same
// RNG positions, so the same charges and noise draws), and then Serve skips
// the source prefix the durable state already covers. Work the crashed
// process did after its last durable write is simply re-done from the same
// pre-state, which is why nothing is ever double-charged: the in-memory
// effects of that work died with the process.

// snapSchemaVersion guards the snapshot payload layout (the file framing has
// its own version, checkpoint.FormatVersion). v2: event blobs switched from
// the row codec to the columnar events.MarshalEvents layout — a v1 snapshot
// must be refused up front, not fed to the incompatible decoder. v3: devices
// carry their ledger denial counters, so the budget-drain telemetry survives
// recovery, and snapshots may be deltas folded over a base generation.
const snapSchemaVersion = 3

// snapConfig is the scenario fingerprint stored in every snapshot. Resuming
// under a different scenario would silently diverge from the original run,
// so ResumeFrom refuses mismatches. Execution-only knobs (Parallelism,
// QueueSize) are excluded: results are invariant to them.
type snapConfig struct {
	EpochDays            int     `json:"epochDays"`
	WindowDays           int     `json:"windowDays"`
	EpsilonG             uint64  `json:"epsilonGBits"`
	CalibrationAlpha     float64 `json:"calAlpha"`
	CalibrationBeta      float64 `json:"calBeta"`
	FixedEpsilon         uint64  `json:"fixedEpsilonBits"`
	Bias                 bool    `json:"bias"`
	BiasLastTouch        bool    `json:"biasLastTouch"`
	BiasKappa            uint64  `json:"biasKappaBits"`
	Seed                 uint64  `json:"seed"`
	MaxQueriesPerProduct int     `json:"maxQueries"`
	Central              bool    `json:"central"`
	Lean                 bool    `json:"lean"`
	LatePolicy           int     `json:"latePolicy"`
	Dataset              string  `json:"dataset"`
}

func (s *Service) snapConfig() snapConfig {
	sc := snapConfig{
		EpochDays:            s.cfg.EpochDays,
		WindowDays:           s.cfg.WindowDays,
		EpsilonG:             math.Float64bits(s.cfg.EpsilonG),
		CalibrationAlpha:     s.cfg.Calibration.Alpha,
		CalibrationBeta:      s.cfg.Calibration.Beta,
		FixedEpsilon:         math.Float64bits(s.cfg.FixedEpsilon),
		Seed:                 s.cfg.Seed,
		MaxQueriesPerProduct: s.cfg.MaxQueriesPerProduct,
		Central:              s.cfg.Central,
		Lean:                 s.cfg.Lean,
		LatePolicy:           int(s.cfg.LatePolicy),
		Dataset:              s.meta.Name,
	}
	if s.cfg.Bias != nil {
		sc.Bias = true
		sc.BiasLastTouch = s.cfg.Bias.LastTouch
		sc.BiasKappa = math.Float64bits(s.cfg.Bias.Kappa)
	}
	return sc
}

// deviceState is one device's budget-ledger lanes. Slots carry the binary
// slot encoding (encodeSlots): the fleet's slot table is the snapshot's
// biggest section after the event store, and reflective JSON there would
// dominate snapshot cost.
type deviceState struct {
	ID    uint64 `json:"id"`
	Slots []byte `json:"slots,omitempty"`
	// Denials is the device ledger's lifetime denial counter — pure
	// telemetry, but telemetry the hostile-traffic scenarios assert on, so
	// it must survive recovery like any other state.
	Denials uint64 `json:"denials,omitempty"`
}

// encodeSlots packs a device's ledger rows: u32 count, then per slot a
// length-prefixed querier string, the epoch (u32, two's complement), and
// consumed/capacity as IEEE-754 bits.
func encodeSlots(rows []core.LedgerRow) []byte {
	if len(rows) == 0 {
		return nil
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(rows)))
	for _, r := range rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Querier)))
		buf = append(buf, r.Querier...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(r.Epoch)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Consumed))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Capacity))
	}
	return buf
}

// decodeSlots streams an encodeSlots blob into fn.
func decodeSlots(buf []byte, fn func(q events.Site, e events.Epoch, consumed, capacity float64) error) error {
	if len(buf) == 0 {
		return nil
	}
	if len(buf) < 4 {
		return fmt.Errorf("stream: truncated slot table")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return fmt.Errorf("stream: truncated slot querier")
		}
		qn := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if qn < 0 || qn+4+16 > len(buf) {
			return fmt.Errorf("stream: slot querier of %d bytes exceeds buffer", qn)
		}
		q := events.Site(buf[:qn])
		buf = buf[qn:]
		e := events.Epoch(int32(binary.LittleEndian.Uint32(buf)))
		consumed := math.Float64frombits(binary.LittleEndian.Uint64(buf[4:]))
		capacity := math.Float64frombits(binary.LittleEndian.Uint64(buf[12:]))
		buf = buf[20:]
		if err := fn(q, e, consumed, capacity); err != nil {
			return err
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("stream: %d trailing bytes in slot table", len(buf))
	}
	return nil
}

// recordState is one live device-epoch record of the event store. Events
// use the compact binary codec (events.MarshalEvents) — they dominate the
// snapshot's bytes, and reflective JSON there would dominate its cost.
type recordState struct {
	Device uint64 `json:"d"`
	Epoch  int32  `json:"e"`
	Events []byte `json:"events"`
}

// streamSnap is one query stream's planner cursor.
type streamSnap struct {
	Site    string `json:"site"`
	Product string `json:"product"`
	Epsilon uint64 `json:"epsilonBits"`
	Seq     int    `json:"seq"`
	Capped  bool   `json:"capped"`
	Pending []byte `json:"pending,omitempty"`
}

// streamSnapOf captures one planner stream's cursor.
func streamSnapOf(key streamKey, st *streamState) streamSnap {
	return streamSnap{Site: string(key.site), Product: key.product, Epsilon: math.Float64bits(st.epsilon),
		Seq: st.seq, Capped: st.capped, Pending: events.MarshalEvents(st.pending)}
}

// compareStreamSnaps orders planner cursors by stream key.
func compareStreamSnaps(a, b streamSnap) int {
	return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(a.Product, b.Product))
}

// resultState is one released query result, floats as bit patterns.
type resultState struct {
	Querier        string `json:"querier"`
	Product        string `json:"product"`
	Index          int    `json:"index"`
	Batch          int    `json:"batch"`
	Epsilon        uint64 `json:"epsilonBits"`
	Executed       bool   `json:"executed"`
	Truth          uint64 `json:"truthBits"`
	Estimate       uint64 `json:"estimateBits"`
	RMSRE          uint64 `json:"rmsreBits"`
	FireDay        int    `json:"fireDay"`
	DeniedReports  int    `json:"denied"`
	BiasedReports  int    `json:"biased"`
	BiasEstimate   uint64 `json:"biasEstimateBits"`
	FirstEpoch     int32  `json:"firstEpoch"`
	LastEpoch      int32  `json:"lastEpoch"`
	AvgBudgetAfter uint64 `json:"avgBudgetAfterBits"`
}

// centralState is one central (IPA-like) filter row.
type centralState struct {
	Querier  string `json:"q"`
	Epoch    int32  `json:"e"`
	Consumed uint64 `json:"c"`
}

// dropMarkState is one device's late-drop admission mark (see
// Service.dropMarks): a durable admission decision the event store cannot
// carry, persisted so external dedupe cursors survive a snapshot that
// subsumes the WAL.
type dropMarkState struct {
	Device uint64 `json:"d"`
	Day    int    `json:"day"`
	ID     uint64 `json:"id"`
}

// snapState is the full snapshot payload.
type snapState struct {
	Schema int        `json:"schema"`
	Config snapConfig `json:"config"`

	// Day clock and ingest cursor.
	CurDay         int   `json:"curDay"`
	Started        bool  `json:"started"`
	EventsIngested int   `json:"eventsIngested"`
	EventsDropped  int   `json:"eventsDropped,omitempty"`
	NextIndex      int   `json:"nextIndex"`
	EvictFloor     int32 `json:"evictFloor"`
	LastSnapDay    int   `json:"lastSnapDay"`
	// DropMarks are the per-device late-drop admission marks, captured
	// whole (the map holds at most one entry per device, and only while
	// that device's newest admission was a drop).
	DropMarks []dropMarkState `json:"dropMarks,omitempty"`

	// Replay protection and noise streams.
	NonceFloor   uint64     `json:"nonceFloor"`
	AggWatermark uint64     `json:"aggWatermark"`
	AggSeen      []uint64   `json:"aggSeen,omitempty"`
	AggNoise     [4]uint64  `json:"aggNoise"`
	IPANoise     *[4]uint64 `json:"ipaNoise,omitempty"`

	// Budget state.
	FleetFloor int32          `json:"fleetFloor"`
	Devices    []deviceState  `json:"devices"`
	Central    []centralState `json:"central,omitempty"`

	// Event store and planner cursor.
	Records []recordState `json:"records"`
	Streams []streamSnap  `json:"streams"`

	// Run accumulators and telemetry.
	Results             []resultState `json:"results"`
	Requested           []byte        `json:"requested,omitempty"`
	TotalConsumed       uint64        `json:"totalConsumedBits"`
	PeakQueue           int           `json:"peakQueue"`
	PeakResidentRecords int           `json:"peakResidentRecords"`
	EvictedRecords      int           `json:"evictedRecords"`
	RetiredNonces       int           `json:"retiredNonces"`
	ReleasedFilters     int           `json:"releasedFilters"`
}

// WAL record layout: the event's global ingest sequence number (u64,
// little-endian) followed by the event's binary encoding. The sequence
// number is the cursor that makes replay after a crash between snapshot
// commit and WAL rotation skip already-snapshotted records instead of
// double-applying them.

// encodeWALRecord frames one ingested event for the WAL.
func encodeWALRecord(buf []byte, seq int, ev events.Event) []byte {
	buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(seq))
	return events.AppendBinary(buf, ev)
}

// decodeWALRecord parses one WAL record.
func decodeWALRecord(rec []byte) (seq int, ev events.Event, err error) {
	if len(rec) < 8 {
		return 0, ev, fmt.Errorf("stream: truncated wal record (%d bytes)", len(rec))
	}
	seq = int(int64(binary.LittleEndian.Uint64(rec)))
	ev, rest, err := events.DecodeBinary(rec[8:])
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("stream: %d trailing bytes in wal record", len(rest))
	}
	return seq, ev, err
}

// Checkpoint commits a full snapshot of the service's current state as a
// fresh base generation in dir. The service must be at a quiescent point —
// no day flush in progress (Serve takes snapshots itself at day boundaries
// via Config.SnapshotEveryDays; call Checkpoint directly only before Serve
// starts or after it returns).
func (s *Service) Checkpoint(dir string) error {
	if len(s.due) != 0 {
		return fmt.Errorf("stream: checkpoint with %d unflushed queries", len(s.due))
	}
	snap := s.snapshot()
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("stream: encoding snapshot: %w", err)
	}
	st := s.store
	if st == nil || dir != s.cfg.CheckpointDir {
		st = checkpoint.NewStore(dir, s.cfg.DurableFS)
	}
	gen, err := st.MaxGen()
	if err != nil {
		return err
	}
	gen++
	fp, err := st.WriteBase(gen, payload)
	if err != nil {
		return err
	}
	if st == s.store {
		s.headGen, s.headFP = gen, fp
		s.fold = newChainFold(snap)
		if s.nextGen <= gen {
			s.nextGen = gen + 1
		}
	}
	return nil
}

// snapshot captures the complete service state. Caller guarantees
// quiescence.
func (s *Service) snapshot() *snapState {
	snap := s.scalarSnap()

	// Fleet: every created device (even ones with no initialized slots —
	// device existence is itself state) with its sorted ledger rows.
	s.fleet.Range(func(d *core.Device) bool {
		snap.Devices = append(snap.Devices, deviceState{
			ID:      uint64(d.ID()),
			Slots:   encodeSlots(d.Ledger()),
			Denials: d.BudgetDenials(),
		})
		return true
	})

	// Event store: live device-epoch records in deterministic order.
	for _, dev := range s.db.Devices() {
		for _, e := range s.db.DeviceEpochs(dev) {
			rec := recordState{Device: uint64(dev), Epoch: int32(e),
				Events: events.MarshalEvents(s.db.EpochEvents(dev, e))}
			snap.Records = append(snap.Records, rec)
		}
	}

	// Planner cursor, sorted by stream key for deterministic bytes.
	for key, st := range s.plan.streams {
		snap.Streams = append(snap.Streams, streamSnapOf(key, st))
	}
	slices.SortFunc(snap.Streams, compareStreamSnaps)

	snap.Results = appendResultStates(nil, s.run.Results)
	if s.run.Requested != nil {
		snap.Requested = s.run.Requested.encode()
	}
	return snap
}

// scalarSnap captures everything a snapshot carries whole regardless of
// representation: the day clock, cursors, telemetry accumulators, noise
// streams, replay protection, and the central budgeter. Shared by full
// snapshots and deltas, so the two can never disagree on the scalars.
func (s *Service) scalarSnap() *snapState {
	snap := &snapState{
		Schema:         snapSchemaVersion,
		Config:         s.snapConfig(),
		CurDay:         s.curDay,
		Started:        s.started,
		EventsIngested: s.run.EventsIngested,
		EventsDropped:  s.run.EventsDropped,
		NextIndex:      s.nextIndex,
		EvictFloor:     int32(s.evictFloor),
		LastSnapDay:    s.lastSnapDay,

		NonceFloor: uint64(core.NonceFloor()),
		AggNoise:   s.aggNoise.State(),

		FleetFloor: int32(s.fleet.EpochFloor()),

		TotalConsumed:       math.Float64bits(s.run.TotalConsumed),
		PeakQueue:           s.run.PeakQueue,
		PeakResidentRecords: s.run.PeakResidentRecords,
		EvictedRecords:      s.run.EvictedRecords,
		RetiredNonces:       s.run.RetiredNonces,
		ReleasedFilters:     s.run.ReleasedFilters,
	}

	for dev, m := range s.dropMarks {
		snap.DropMarks = append(snap.DropMarks, dropMarkState{
			Device: uint64(dev), Day: m.Day, ID: uint64(m.ID),
		})
	}
	slices.SortFunc(snap.DropMarks, func(a, b dropMarkState) int { return cmp.Compare(a.Device, b.Device) })

	watermark, seen := s.agg.SnapshotNonces()
	snap.AggWatermark = uint64(watermark)
	for _, n := range seen {
		snap.AggSeen = append(snap.AggSeen, uint64(n))
	}
	if s.ipaNoise != nil {
		st := s.ipaNoise.State()
		snap.IPANoise = &st
	}

	if s.central != nil {
		for _, row := range s.central.Rows() {
			snap.Central = append(snap.Central, centralState{
				Querier:  string(row.Querier),
				Epoch:    int32(row.Epoch),
				Consumed: math.Float64bits(row.Consumed),
			})
		}
	}
	return snap
}

// appendResultStates converts released results to their persisted form.
func appendResultStates(dst []resultState, results []Result) []resultState {
	for _, res := range results {
		dst = append(dst, resultState{
			Querier:        string(res.Querier),
			Product:        res.Product,
			Index:          res.Index,
			Batch:          res.Batch,
			Epsilon:        math.Float64bits(res.Epsilon),
			Executed:       res.Executed,
			Truth:          math.Float64bits(res.Truth),
			Estimate:       math.Float64bits(res.Estimate),
			RMSRE:          math.Float64bits(res.RMSRE),
			FireDay:        res.FireDay,
			DeniedReports:  res.DeniedReports,
			BiasedReports:  res.BiasedReports,
			BiasEstimate:   math.Float64bits(res.BiasEstimate),
			FirstEpoch:     int32(res.FirstEpoch),
			LastEpoch:      int32(res.LastEpoch),
			AvgBudgetAfter: math.Float64bits(res.AvgBudgetAfter),
		})
	}
	return dst
}

// errReplayGap stops WAL replay cleanly when a record's sequence number
// jumps past the ingest cursor — a mid-chain segment lost records to
// corruption (bit-flip, lost tail). Everything from the cursor on is
// re-read from the deterministic source instead.
var errReplayGap = errors.New("stream: wal sequence gap")

// ResumeFrom rebuilds a service from dir's durable state: it loads the
// newest intact base generation, folds its delta chain into a full
// snapshot, restores it, and replays the retained WAL segments through the
// ordinary ingest path — re-executing any day flush the log crosses, with
// the restored ledger and noise-stream state, so the re-execution is
// bit-identical to what the crashed process computed. The returned
// service's Serve skips the source prefix the durable state already covers
// and continues live from there.
//
// Recovery never serves corrupt state and never fails on it either:
// generations that fail their frame or chain checks are skipped (falling
// back to the newest intact base below them), a WAL sequence gap stops
// replay cleanly, and in the worst case — nothing intact at all — the run
// restarts from the source. Every such downgrade is counted in
// Run.Durability.RecoveryFallbacks. Only a genuine mismatch (a snapshot
// from a different scenario) is an error.
//
// cfg must describe the same scenario as the original run (ResumeFrom
// verifies the snapshot's config fingerprint) with the source positioned at
// the start of the stream; Parallelism and QueueSize may differ.
func ResumeFrom(cfg Config, dir string) (*Service, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	st := checkpoint.NewStore(dir, s.cfg.DurableFS)
	s.store = st
	chain, fallbacks, err := st.LoadChain()
	if err != nil {
		return nil, err
	}
	restored := false
	if chain != nil {
		fold, err := foldChain(chain.Payloads)
		if err != nil {
			return nil, err
		}
		if err := s.restore(fold.snapshot()); err != nil {
			return nil, err
		}
		s.headGen, s.headFP = chain.Gen, chain.FP
		s.fold = fold
		restored = true
	}
	maxGen, err := st.MaxGen()
	if err != nil {
		return nil, err
	}
	s.nextGen = maxGen + 1

	// Dirty tracking goes live before replay: the mutations replay makes
	// are exactly what the first post-recovery delta must capture.
	if s.cfg.CheckpointDir != "" && s.cfg.SnapshotMode == SnapshotModeDelta {
		s.resetDirtyTracking()
	}

	// Replay the retained WAL segments through the normal ingest path.
	// Records at sequence numbers the snapshot already covers (segments
	// rotated before the chain head was captured, or a crash between
	// commit and rotation) are skipped by the cursor.
	s.replaying = true
	var replayed int
	replayed, err = st.ReplayWALSegments(func(rec []byte) error {
		seq, ev, err := decodeWALRecord(rec)
		if err != nil {
			return err
		}
		switch {
		case seq < s.run.EventsIngested:
			return nil // already in the snapshot
		case seq > s.run.EventsIngested:
			return errReplayGap
		}
		return s.step(ev)
	})
	s.replaying = false
	if errors.Is(err, errReplayGap) || errors.Is(err, checkpoint.ErrCorrupt) {
		// Clean stop: the durable state ends at the cursor; Serve re-reads
		// the rest from the source. A corrupt segment (a flipped preamble
		// bit, a record that fails to decode) ends the durable log exactly
		// like a torn tail — everything past it is re-delivered by the
		// source and re-applied deterministically, so refusing to start
		// would turn one lost tail into a permanently unrecoverable
		// directory. The skipped tail is reported as a fallback.
		fallbacks++
		err = nil
	}
	if err != nil {
		return nil, err
	}
	s.run.Durability.RecoveryFallbacks = fallbacks
	s.skip = s.run.EventsIngested
	if cfg.LiveSource {
		// A live feed never re-delivers the covered prefix — its admission
		// layer dedupes against the very cursors the observers just rebuilt
		// — so there is no prefix to skip: the next event drained is new.
		s.skip = 0
	}
	// An empty directory holds no run to continue: leave resumed unset so
	// Serve initializes it as a fresh run (a Serve-owned directory always
	// carries a fingerprinted base from the very start, so a later
	// ResumeFrom can check the scenario even before any cadence snapshot).
	s.resumed = restored || replayed > 0
	return s, nil
}

// restore applies a decoded snapshot to a freshly built service.
func (s *Service) restore(snap *snapState) error {
	if snap.Schema != snapSchemaVersion {
		return fmt.Errorf("stream: unsupported snapshot schema %d", snap.Schema)
	}
	if want, got := s.snapConfig(), snap.Config; got != want {
		return fmt.Errorf("stream: snapshot is for a different scenario (%+v, running %+v)",
			got, want)
	}

	s.curDay = snap.CurDay
	s.started = snap.Started
	s.nextIndex = snap.NextIndex
	s.evictFloor = events.Epoch(snap.EvictFloor)
	s.lastSnapDay = snap.LastSnapDay
	s.run.EventsIngested = snap.EventsIngested
	s.run.EventsDropped = snap.EventsDropped
	s.run.TotalConsumed = math.Float64frombits(snap.TotalConsumed)
	s.run.PeakQueue = snap.PeakQueue
	s.run.PeakResidentRecords = snap.PeakResidentRecords
	s.run.EvictedRecords = snap.EvictedRecords
	s.run.RetiredNonces = snap.RetiredNonces
	s.run.ReleasedFilters = snap.ReleasedFilters

	// Replay protection: never re-mint a nonce the crashed process already
	// issued, and reinstate the aggregation service's one-use state.
	core.EnsureNonceFloor(core.Nonce(snap.NonceFloor))
	seen := make([]core.Nonce, 0, len(snap.AggSeen))
	for _, n := range snap.AggSeen {
		seen = append(seen, core.Nonce(n))
	}
	s.agg.RestoreNonces(core.Nonce(snap.AggWatermark), seen)

	// Noise streams continue from their exact crash-time positions.
	s.aggNoise.SetState(snap.AggNoise)
	switch {
	case s.ipaNoise != nil && snap.IPANoise != nil:
		s.ipaNoise.SetState(*snap.IPANoise)
	case (s.ipaNoise == nil) != (snap.IPANoise == nil):
		return fmt.Errorf("stream: snapshot central-noise state mismatch")
	}

	// Budget state: retention floor first (devices created below inherit
	// it; every restored row is at or above it by construction).
	if floor := events.Epoch(snap.FleetFloor); floor > s.fleet.EpochFloor() {
		s.fleet.AdvanceEpochFloor(floor)
	}
	for _, ds := range snap.Devices {
		d := s.fleet.GetOrCreate(events.DeviceID(ds.ID))
		err := decodeSlots(ds.Slots, d.RestoreBudgetRow)
		if err != nil {
			return fmt.Errorf("stream: device %d: %w", ds.ID, err)
		}
		d.RestoreBudgetDenials(ds.Denials)
	}
	if len(snap.Central) > 0 && s.central == nil {
		return fmt.Errorf("stream: snapshot has central filters but run is on-device")
	}
	for _, cs := range snap.Central {
		err := s.central.Restore(events.Site(cs.Querier), events.Epoch(cs.Epoch),
			math.Float64frombits(cs.Consumed))
		if err != nil {
			return err
		}
	}

	// Event store: live records re-recorded in their stored (Day, ID)
	// order. The admission observer sees every restored event, so an
	// external admission layer rebuilds its dedupe cursors from the same
	// durable state the service resumes from.
	for _, rec := range snap.Records {
		evs, err := events.UnmarshalEvents(rec.Events)
		if err != nil {
			return fmt.Errorf("stream: record %d/%d: %w", rec.Device, rec.Epoch, err)
		}
		for _, ev := range evs {
			s.db.Record(events.Epoch(rec.Epoch), ev)
			s.observeAdmit(ev, false)
		}
	}

	// Late-drop admission marks: durable admission decisions with no event
	// behind them. The observer sees each one as a dropped admission (the
	// synthesized event carries only its identity), so the serving layer's
	// dedupe cursor for a device whose newest admission was late-dropped
	// does not regress across suspend/resume even after the snapshot has
	// subsumed the WAL records of those drops.
	for _, dm := range snap.DropMarks {
		dev := events.DeviceID(dm.Device)
		mark := dropMark{Day: dm.Day, ID: events.EventID(dm.ID)}
		s.dropMarks[dev] = mark
		s.observeAdmit(events.Event{ID: mark.ID, Device: dev, Day: mark.Day}, true)
	}

	// Planner cursor.
	for _, ss := range snap.Streams {
		adv, ok := s.plan.advBySite[events.Site(ss.Site)]
		if !ok {
			return fmt.Errorf("stream: snapshot stream for unknown advertiser %s", ss.Site)
		}
		pending, err := events.UnmarshalEvents(ss.Pending)
		if err != nil {
			return fmt.Errorf("stream: stream %s/%s: %w", ss.Site, ss.Product, err)
		}
		key := streamKey{events.Site(ss.Site), ss.Product}
		s.plan.streams[key] = &streamState{
			adv:     adv,
			product: ss.Product,
			epsilon: math.Float64frombits(ss.Epsilon),
			pending: pending,
			seq:     ss.Seq,
			capped:  ss.Capped,
		}
	}

	// Released results and the Fig. 4 accounting. Restored results replay
	// through the result observer so the serving layer's poll buffer
	// survives recovery.
	for _, rs := range snap.Results {
		s.run.Results = append(s.run.Results, Result{
			Querier:        events.Site(rs.Querier),
			Product:        rs.Product,
			Index:          rs.Index,
			Batch:          rs.Batch,
			Epsilon:        math.Float64frombits(rs.Epsilon),
			Executed:       rs.Executed,
			Truth:          math.Float64frombits(rs.Truth),
			Estimate:       math.Float64frombits(rs.Estimate),
			RMSRE:          math.Float64frombits(rs.RMSRE),
			FireDay:        rs.FireDay,
			DeniedReports:  rs.DeniedReports,
			BiasedReports:  rs.BiasedReports,
			BiasEstimate:   math.Float64frombits(rs.BiasEstimate),
			FirstEpoch:     events.Epoch(rs.FirstEpoch),
			LastEpoch:      events.Epoch(rs.LastEpoch),
			AvgBudgetAfter: math.Float64frombits(rs.AvgBudgetAfter),
		})
		s.observeResult(s.run.Results[len(s.run.Results)-1])
	}
	if s.run.Requested != nil {
		set, err := decodeRequestedSet(snap.Requested)
		if err != nil {
			return err
		}
		s.run.Requested = set
	}
	return nil
}
