package stream

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/events"
)

// Delta snapshots (DESIGN.md §12). A cadence tick no longer serializes the
// whole service: the service tracks which state changed since the previous
// capture — device ledgers by mutation version, event-store records and
// planner streams by dirty set, results by high-water mark — and captures
// only that, chained to its parent generation by fingerprint. chainFold is
// the single definition of what a delta means: adding a chain's generations
// in order reproduces, bit for bit, the full snapshot the service would have
// written at the head capture. The background writer keeps one fold over the
// committed chain and compacts from it in memory; recovery builds one from
// the payloads on disk.

// resetDirtyTracking arms the dirty trackers with the current state as the
// baseline: the next captureDelta reports exactly what changes after this
// call. On a resume it must run after restore() and before WAL replay, so
// replay-era mutations land in the first post-recovery delta.
func (s *Service) resetDirtyTracking() {
	s.db.TrackDirty()
	s.db.DrainDirty()
	s.plan.trackDirty()
	if s.run.Requested != nil {
		s.run.Requested.trackDirty()
	}
	s.ledgerVers = make(map[events.DeviceID]uint64)
	s.fleet.Range(func(d *core.Device) bool {
		s.ledgerVers[d.ID()] = d.LedgerVersion()
		return true
	})
	s.resultsMark = len(s.run.Results)
}

// captureDelta builds the dirty-state snapshot since the previous capture
// and advances the baselines. Scalars, the central budgeter, and the
// replay-protection set are captured whole — they are small and change
// every day; the sections that dominate snapshot bytes carry only what
// changed. The returned state is self-contained (every slice freshly
// encoded), so the background writer can serialize it while ingest runs.
func (s *Service) captureDelta() *snapState {
	snap := s.scalarSnap()

	// Devices whose ledger mutated since the last capture, or are new.
	s.fleet.Range(func(d *core.Device) bool {
		v := d.LedgerVersion()
		if last, ok := s.ledgerVers[d.ID()]; ok && last == v {
			return true
		}
		s.ledgerVers[d.ID()] = v
		snap.Devices = append(snap.Devices, deviceState{
			ID:      uint64(d.ID()),
			Slots:   encodeSlots(d.Ledger()),
			Denials: d.BudgetDenials(),
		})
		return true
	})

	for _, key := range s.db.DrainDirty() {
		snap.Records = append(snap.Records, recordState{
			Device: uint64(key.Device),
			Epoch:  int32(key.Epoch),
			Events: events.MarshalEvents(s.db.EpochEvents(key.Device, key.Epoch)),
		})
	}

	for _, key := range s.plan.drainDirty() {
		snap.Streams = append(snap.Streams, streamSnapOf(key, s.plan.streams[key]))
	}

	snap.Results = appendResultStates(nil, s.run.Results[s.resultsMark:])
	s.resultsMark = len(s.run.Results)

	if s.run.Requested != nil {
		snap.Requested = s.run.Requested.drainDirty()
	}
	return snap
}

// chainFold folds a generation chain — a base, then its deltas in chain
// order — into the full snapshot at the chain's head. Keyed sections
// (devices, event-store records, planner streams) overlay by row key, the
// newer generation's row winning; records below each delta's eviction floor
// are dropped as the delta arrives, so a fold never resurrects evicted
// records; results append; scalars and the whole-captured sections come from
// the newest generation; and the requested-epoch table stays encoded,
// merged as two sorted tables.
//
// Rows are shared with the generations added, never copied or re-encoded:
// the caller hands over each generation and must not mutate it afterwards.
type chainFold struct {
	// base is the chain's base while no delta has been added: the keyed
	// maps are only built once a delta needs them, so a fold that never
	// sees a delta (full mode, a delta-free chain) costs nothing.
	base *snapState
	head *snapState

	devices map[uint64]deviceState
	records map[DevEpoch]recordState
	streams map[streamKey]streamSnap
	// floor is the newest delta's eviction floor; every held record is at
	// or above it.
	floor     events.Epoch
	results   []resultState
	requested []byte
}

// newChainFold starts a fold at a base generation.
func newChainFold(base *snapState) *chainFold {
	return &chainFold{base: base, head: base}
}

// add folds the next delta in chain order. A malformed requested table is
// an error and leaves the fold unchanged.
func (f *chainFold) add(delta *snapState) error {
	requested := f.requested
	if f.base != nil {
		requested = f.base.Requested
	}
	if len(delta.Requested) > 0 {
		var err error
		if requested, err = mergeRequested(requested, delta.Requested); err != nil {
			return err
		}
	}
	if f.base != nil {
		f.materialize()
	}
	f.head = delta
	f.requested = requested
	for _, d := range delta.Devices {
		f.devices[d.ID] = d
	}
	if floor := events.Epoch(delta.EvictFloor); floor > f.floor {
		for k := range f.records {
			if k.Epoch < floor {
				delete(f.records, k)
			}
		}
	}
	f.floor = events.Epoch(delta.EvictFloor)
	for _, rec := range delta.Records {
		if rec.Epoch >= delta.EvictFloor {
			f.records[recordKeyOf(rec)] = rec
		}
	}
	for _, ss := range delta.Streams {
		f.streams[streamKeyOf(ss)] = ss
	}
	f.results = append(f.results, delta.Results...)
	return nil
}

// materialize moves the base's sections into the keyed maps. The base's
// own records are kept whole: only deltas carry an eviction floor to apply.
func (f *chainFold) materialize() {
	b := f.base
	f.base = nil
	f.devices = make(map[uint64]deviceState, len(b.Devices))
	for _, d := range b.Devices {
		f.devices[d.ID] = d
	}
	f.records = make(map[DevEpoch]recordState, len(b.Records))
	for _, rec := range b.Records {
		f.records[recordKeyOf(rec)] = rec
	}
	f.streams = make(map[streamKey]streamSnap, len(b.Streams))
	for _, ss := range b.Streams {
		f.streams[streamKeyOf(ss)] = ss
	}
	f.floor = math.MinInt32
	f.results = b.Results
}

func recordKeyOf(rec recordState) DevEpoch {
	return DevEpoch{events.DeviceID(rec.Device), events.Epoch(rec.Epoch)}
}

func streamKeyOf(ss streamSnap) streamKey {
	return streamKey{events.Site(ss.Site), ss.Product}
}

// snapshot materializes the folded full snapshot: the head's scalars with
// every keyed section sorted by row key, exactly the payload a full capture
// at the head would carry. The result shares rows with the fold and is
// valid until the next add.
func (f *chainFold) snapshot() *snapState {
	if f.base != nil {
		return f.base
	}
	out := *f.head
	// Devices and streams are never dropped, so an empty section means
	// every generation's was empty; keep the head's (nil) one.
	if len(f.devices) > 0 {
		out.Devices = make([]deviceState, 0, len(f.devices))
		for _, d := range f.devices {
			out.Devices = append(out.Devices, d)
		}
		slices.SortFunc(out.Devices, func(a, b deviceState) int { return cmp.Compare(a.ID, b.ID) })
	}
	// Records may all be evicted; a folded section is then an empty list.
	out.Records = make([]recordState, 0, len(f.records))
	for _, rec := range f.records {
		out.Records = append(out.Records, rec)
	}
	slices.SortFunc(out.Records, func(a, b recordState) int { return recordKeyOf(a).compare(recordKeyOf(b)) })
	if len(f.streams) > 0 {
		out.Streams = make([]streamSnap, 0, len(f.streams))
		for _, ss := range f.streams {
			out.Streams = append(out.Streams, ss)
		}
		slices.SortFunc(out.Streams, compareStreamSnaps)
	}
	out.Results = f.results
	out.Requested = f.requested
	return &out
}

// foldChain decodes a generation chain's payloads (base first, then each
// delta in chain order) and folds them.
func foldChain(payloads [][]byte) (*chainFold, error) {
	var fold *chainFold
	for i, payload := range payloads {
		snap := new(snapState)
		if err := json.Unmarshal(payload, snap); err != nil {
			return nil, fmt.Errorf("stream: decoding chain generation %d: %w", i, err)
		}
		if fold == nil {
			fold = newChainFold(snap)
			continue
		}
		if err := fold.add(snap); err != nil {
			return nil, fmt.Errorf("stream: folding chain generation %d: %w", i, err)
		}
	}
	return fold, nil
}

// requestedCursor walks the entries of an encoded requested table in order,
// rejecting any entry RequestedSet.encode could not have written.
type requestedCursor struct {
	buf   []byte // entries not yet read
	left  int
	read  bool // key holds the previous entry's key
	key   DevEpoch
	entry []byte   // the current entry's encoding
	sites [][]byte // the current entry's sites, in order
}

func openRequested(buf []byte) (requestedCursor, error) {
	if len(buf) == 0 {
		return requestedCursor{}, nil
	}
	if len(buf) < 4 {
		return requestedCursor{}, fmt.Errorf("stream: truncated requested table")
	}
	return requestedCursor{buf: buf[4:], left: int(binary.LittleEndian.Uint32(buf))}, nil
}

// next loads the following entry, validating its framing and canonical
// form: keys strictly ascending, at least one site, sites strictly
// ascending. ok is false past the last entry.
func (c *requestedCursor) next() (ok bool, err error) {
	if c.left == 0 {
		if len(c.buf) != 0 {
			return false, fmt.Errorf("stream: %d trailing bytes in requested table", len(c.buf))
		}
		return false, nil
	}
	c.left--
	if len(c.buf) < 16 {
		return false, fmt.Errorf("stream: truncated requested entry")
	}
	key := DevEpoch{
		Device: events.DeviceID(binary.LittleEndian.Uint64(c.buf)),
		Epoch:  events.Epoch(int32(binary.LittleEndian.Uint32(c.buf[8:]))),
	}
	if c.read && key.compare(c.key) <= 0 {
		return false, fmt.Errorf("stream: requested entry (%d, %d) out of order", key.Device, key.Epoch)
	}
	sites := binary.LittleEndian.Uint32(c.buf[12:])
	if sites == 0 {
		return false, fmt.Errorf("stream: requested entry (%d, %d) has no sites", key.Device, key.Epoch)
	}
	c.sites = c.sites[:0]
	n := 16
	for ; sites > 0; sites-- {
		if len(c.buf)-n < 4 {
			return false, fmt.Errorf("stream: truncated requested site")
		}
		ln := int(binary.LittleEndian.Uint32(c.buf[n:]))
		n += 4
		if ln > len(c.buf)-n {
			return false, fmt.Errorf("stream: requested site of %d bytes exceeds buffer", ln)
		}
		site := c.buf[n : n+ln]
		if len(c.sites) > 0 && bytes.Compare(c.sites[len(c.sites)-1], site) >= 0 {
			return false, fmt.Errorf("stream: requested entry (%d, %d) sites out of order", key.Device, key.Epoch)
		}
		c.sites = append(c.sites, site)
		n += ln
	}
	c.key, c.read = key, true
	c.entry, c.buf = c.buf[:n], c.buf[n:]
	return true, nil
}

// mergeRequested merges two encoded requested tables, the delta's entry
// winning on an equal (device, epoch) key: byte for byte what decoding both
// into one set and re-encoding it produces, without building the set. A
// table that is truncated or not canonical (see requestedCursor.next) is an
// error.
func mergeRequested(base, delta []byte) ([]byte, error) {
	b, err := openRequested(base)
	if err != nil {
		return nil, err
	}
	d, err := openRequested(delta)
	if err != nil {
		return nil, err
	}
	okB, err := b.next()
	if err != nil {
		return nil, err
	}
	okD, err := d.next()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4, 4+len(base)+len(delta))
	count := uint32(0)
	for okB || okD {
		c := 1 // which side to emit: <0 base only, 0 equal keys, >0 delta only
		if okB && okD {
			c = b.key.compare(d.key)
		} else if okB {
			c = -1
		}
		if c < 0 {
			out = append(out, b.entry...)
		} else {
			out = append(out, d.entry...)
		}
		count++
		if c <= 0 {
			if okB, err = b.next(); err != nil {
				return nil, err
			}
		}
		if c >= 0 {
			if okD, err = d.next(); err != nil {
				return nil, err
			}
		}
	}
	if count == 0 {
		return nil, nil
	}
	binary.LittleEndian.PutUint32(out, count)
	return out, nil
}
