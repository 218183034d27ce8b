package stream

// fold_test.go holds the reference fold — the pairwise, decode-everything
// definition of a delta chain — and checks chainFold against it: every base
// the background writer compacts from its in-memory fold must be
// byte-identical to the reference fold of the chain on disk, the sorted
// requested-table merge must equal a decode → map → re-encode merge, and a
// fresh durable run must never read a generation back.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/events"
)

// mergeSnap folds one delta over its parent snapshot: scalars and the
// whole-captured sections come from the delta, keyed sections overlay the
// parent's entries, and results append. Records at epochs below the delta's
// eviction floor are dropped from both sides — the merged state must not
// resurrect evicted records. It is the straightforward pairwise statement
// of what a delta means (decode, overlay, re-sort, re-encode per delta)
// that chainFold must reproduce byte for byte.
func mergeSnap(base, delta *snapState) (*snapState, error) {
	out := new(snapState)
	*out = *delta

	out.Devices = overlayDevices(base.Devices, delta.Devices)
	out.Records = overlayRecords(base.Records, delta.Records, delta.EvictFloor)
	out.Streams = overlayStreams(base.Streams, delta.Streams)
	out.Results = append(base.Results, delta.Results...)

	switch {
	case len(base.Requested) == 0:
		out.Requested = delta.Requested
	case len(delta.Requested) == 0:
		out.Requested = base.Requested
	default:
		m := make(map[DevEpoch]map[events.Site]struct{})
		if err := decodeRequested(base.Requested, m); err != nil {
			return nil, err
		}
		if err := decodeRequested(delta.Requested, m); err != nil {
			return nil, err
		}
		out.Requested = encodeRequested(m)
	}
	return out, nil
}

// overlayDevices merges device rows by ID, the delta's winning.
func overlayDevices(base, delta []deviceState) []deviceState {
	if len(base) == 0 {
		return delta
	}
	if len(delta) == 0 {
		return base
	}
	byID := make(map[uint64]int, len(base))
	merged := base
	for i, d := range merged {
		byID[d.ID] = i
	}
	for _, d := range delta {
		if i, ok := byID[d.ID]; ok {
			merged[i] = d
		} else {
			byID[d.ID] = len(merged)
			merged = append(merged, d)
		}
	}
	slices.SortFunc(merged, func(a, b deviceState) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	return merged
}

// overlayRecords merges event-store records by (device, epoch), the delta's
// winning, and drops epochs the delta's eviction floor has passed.
func overlayRecords(base, delta []recordState, evictFloor int32) []recordState {
	type key struct {
		dev   uint64
		epoch int32
	}
	byKey := make(map[key]int, len(base)+len(delta))
	merged := make([]recordState, 0, len(base)+len(delta))
	for _, lists := range [][]recordState{base, delta} {
		for _, rec := range lists {
			if rec.Epoch < evictFloor {
				continue
			}
			k := key{rec.Device, rec.Epoch}
			if i, ok := byKey[k]; ok {
				merged[i] = rec
			} else {
				byKey[k] = len(merged)
				merged = append(merged, rec)
			}
		}
	}
	slices.SortFunc(merged, func(a, b recordState) int {
		switch {
		case a.Device != b.Device:
			if a.Device < b.Device {
				return -1
			}
			return 1
		case a.Epoch < b.Epoch:
			return -1
		case a.Epoch > b.Epoch:
			return 1
		}
		return 0
	})
	return merged
}

// overlayStreams merges planner cursors by (site, product), the delta's
// winning.
func overlayStreams(base, delta []streamSnap) []streamSnap {
	if len(base) == 0 {
		return delta
	}
	if len(delta) == 0 {
		return base
	}
	type key struct{ site, product string }
	byKey := make(map[key]int, len(base))
	merged := base
	for i, ss := range merged {
		byKey[key{ss.Site, ss.Product}] = i
	}
	for _, ss := range delta {
		k := key{ss.Site, ss.Product}
		if i, ok := byKey[k]; ok {
			merged[i] = ss
		} else {
			byKey[k] = len(merged)
			merged = append(merged, ss)
		}
	}
	slices.SortFunc(merged, func(a, b streamSnap) int {
		switch {
		case a.Site != b.Site:
			if a.Site < b.Site {
				return -1
			}
			return 1
		case a.Product < b.Product:
			return -1
		case a.Product > b.Product:
			return 1
		}
		return 0
	})
	return merged
}

// referenceFold decodes a chain's payloads and folds them pairwise with
// mergeSnap.
func referenceFold(payloads [][]byte) (*snapState, error) {
	var folded *snapState
	for i, payload := range payloads {
		snap := new(snapState)
		if err := json.Unmarshal(payload, snap); err != nil {
			return nil, fmt.Errorf("decoding chain generation %d: %w", i, err)
		}
		if folded == nil {
			folded = snap
			continue
		}
		var err error
		folded, err = mergeSnap(folded, snap)
		if err != nil {
			return nil, err
		}
	}
	return folded, nil
}

// readGenerations decodes every snapshot generation in dir, bases newest
// first and deltas in generation order.
func readGenerations(dir string) (bases, deltas []checkpoint.GenFrame, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		frame, err := checkpoint.DecodeGenFrame(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		if frame.Kind == checkpoint.GenKindBase {
			bases = append(bases, frame)
		} else {
			deltas = append(deltas, frame)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i].Gen > bases[j].Gen })
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Gen < deltas[j].Gen })
	return bases, deltas, nil
}

// checkCompactedBase checks the newest base in dir — just written by
// compaction — against the reference fold of the chain it compacts: the
// previous base and the deltas linked above it by fingerprint.
func checkCompactedBase(dir string) error {
	bases, deltas, err := readGenerations(dir)
	if err != nil {
		return err
	}
	if len(bases) < 2 {
		return fmt.Errorf("compacted base has no parent base on disk (%d bases)", len(bases))
	}
	compacted, parent := bases[0], bases[1]
	payloads := [][]byte{parent.Payload}
	gen, fp := parent.Gen, parent.ChainFP
	for _, d := range deltas {
		if d.Gen > gen && d.ParentFP == fp {
			payloads = append(payloads, d.Payload)
			gen, fp = d.Gen, d.ChainFP
		}
	}
	if gen != compacted.Gen || fp != compacted.ChainFP {
		return fmt.Errorf("chain above base %d ends at %d/%08x, compacted base is %d/%08x",
			parent.Gen, gen, fp, compacted.Gen, compacted.ChainFP)
	}
	if len(payloads) < 2 {
		return fmt.Errorf("compacted base %d folds no delta", compacted.Gen)
	}
	folded, err := referenceFold(payloads)
	if err != nil {
		return err
	}
	want, err := json.Marshal(folded)
	if err != nil {
		return err
	}
	if !bytes.Equal(compacted.Payload, want) {
		return fmt.Errorf("compacted base %d (%d bytes) differs from the reference fold of base %d + %d deltas (%d bytes)",
			compacted.Gen, len(compacted.Payload), parent.Gen, len(payloads)-1, len(want))
	}
	return nil
}

// foldScenario is a small synthetic durable run with frequent captures and
// compactions: evictions, released results, and requested-epoch accounting
// all reach the chain.
func foldScenario(t *testing.T, dir string, fsys checkpoint.FS) Config {
	t.Helper()
	src, err := dataset.NewSynthetic(dataset.SyntheticConfig{
		Seed:              5,
		Population:        400,
		Products:          3,
		BatchSize:         40,
		QueriesPerProduct: 3,
		DurationDays:      70,
		ImpressionsPerDay: 0.3,
		MaxValue:          10,
		WindowDays:        14,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Source:            src,
		WindowDays:        14,
		Seed:              3,
		Parallelism:       2,
		CheckpointDir:     dir,
		SnapshotEveryDays: 2,
		BaseEveryDeltas:   3,
		GroupCommitEvents: 64,
		DurableFS:         fsys,
	}
}

// TestCompactionMatchesReferenceFold: at every compaction, in a fault-free
// run and across a crash and ResumeFrom, the base the writer compacted from
// its in-memory fold is byte-identical to the reference fold of the chain on
// disk.
func TestCompactionMatchesReferenceFold(t *testing.T) {
	t.Run("fault-free", func(t *testing.T) {
		dir := t.TempDir()
		cfg := foldScenario(t, dir, nil)
		checked := 0
		cfg.FaultHook = func(p FaultPoint) error {
			if p == PointBaseCompacted {
				checked++
				if err := checkCompactedBase(dir); err != nil {
					t.Errorf("compaction %d: %v", checked, err)
				}
			}
			return nil
		}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := svc.Serve()
		if err != nil {
			t.Fatal(err)
		}
		if checked < 3 || run.Durability.BaseCompactions != checked {
			t.Fatalf("checked %d compactions, run reports %d; want at least 3",
				checked, run.Durability.BaseCompactions)
		}
		if len(run.Results) == 0 || run.EvictedRecords == 0 {
			t.Fatalf("scenario too small: %d results, %d evicted records",
				len(run.Results), run.EvictedRecords)
		}
	})

	t.Run("crash-resume", func(t *testing.T) {
		dir := t.TempDir()
		// Crash at the fifth capture: one compaction and a delta above it
		// are committed, so the first compaction after recovery folds a
		// chain that spans the crash.
		boom := errors.New("boom")
		captures := 0
		cfg := foldScenario(t, dir, nil)
		cfg.FaultHook = func(p FaultPoint) error {
			if p == PointDeltaCaptured {
				if captures++; captures == 5 {
					return boom
				}
			}
			return nil
		}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Serve(); !errors.Is(err, boom) {
			t.Fatalf("crash run: %v", err)
		}
		bases, deltas, err := readGenerations(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) == 0 || deltas[len(deltas)-1].Gen < bases[0].Gen {
			t.Fatalf("crash left no delta above the newest base (bases %d, deltas %d)",
				len(bases), len(deltas))
		}

		rcfg := foldScenario(t, dir, nil)
		checked := 0
		rcfg.FaultHook = func(p FaultPoint) error {
			if p == PointBaseCompacted {
				checked++
				if err := checkCompactedBase(dir); err != nil {
					t.Errorf("compaction %d after resume: %v", checked, err)
				}
			}
			return nil
		}
		svc, err = ResumeFrom(rcfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Serve(); err != nil {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatal("no compaction after resume")
		}
	})
}

// countingFS counts ReadFile calls on snapshot generation files.
type countingFS struct {
	checkpoint.OsFS
	genReads atomic.Int64
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	base := filepath.Base(name)
	if strings.HasPrefix(base, "base-") || strings.HasPrefix(base, "delta-") {
		c.genReads.Add(1)
	}
	return c.OsFS.ReadFile(name)
}

// TestCompactionReadsNothing pins the mechanism by count: a fresh,
// fault-free durable run captures, commits, and compacts without reading a
// single generation back. Retention is set high enough that GC never has
// an older base to collect — GC's read-back of the bases it keeps, before
// deleting what they supersede, is a separate and deliberate check. Only
// recovery reads the chain.
func TestCompactionReadsNothing(t *testing.T) {
	dir := t.TempDir()
	fsys := &countingFS{}
	cfg := foldScenario(t, dir, fsys)
	cfg.KeepGenerations = 1000
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if run.Durability.BaseCompactions < 3 {
		t.Fatalf("%d compactions, want at least 3", run.Durability.BaseCompactions)
	}
	if n := fsys.genReads.Load(); n != 0 {
		t.Fatalf("fresh durable run read %d generation files", n)
	}

	if _, err := ResumeFrom(foldScenario(t, dir, fsys), dir); err != nil {
		t.Fatal(err)
	}
	if fsys.genReads.Load() == 0 {
		t.Fatal("ResumeFrom read no generation files: the counter is not wired in")
	}
}

// encodeTable builds an encodeRequested table from (device, epoch, sites)
// rows.
func encodeTable(rows ...reqRow) []byte {
	m := make(map[DevEpoch]map[events.Site]struct{})
	for _, r := range rows {
		sites := make(map[events.Site]struct{})
		for _, s := range r.sites {
			sites[events.Site(s)] = struct{}{}
		}
		m[DevEpoch{events.DeviceID(r.dev), events.Epoch(r.epoch)}] = sites
	}
	return encodeRequested(m)
}

type reqRow struct {
	dev   uint64
	epoch int32
	sites []string
}

// mapMerge is the reference requested-table merge: decode both tables into
// one map, the delta's entries replacing the base's, and re-encode.
func mapMerge(base, delta []byte) ([]byte, error) {
	m := make(map[DevEpoch]map[events.Site]struct{})
	if err := decodeRequested(base, m); err != nil {
		return nil, err
	}
	if err := decodeRequested(delta, m); err != nil {
		return nil, err
	}
	return encodeRequested(m), nil
}

func TestMergeRequestedMatchesMapMerge(t *testing.T) {
	a := encodeTable(
		reqRow{1, -2, []string{"b.example", "a.example"}},
		reqRow{1, 0, []string{"a.example"}},
		reqRow{3, 1, []string{"c.example"}},
		reqRow{1 << 40, 5, []string{"a.example", "z.example"}},
	)
	b := encodeTable(
		reqRow{0, 7, []string{"a.example"}},
		reqRow{1, -3, []string{"q.example"}},
		reqRow{1, 0, []string{"b.example", "c.example"}}, // replaces a's entry
		reqRow{3, 1, []string{"c.example"}},              // identical entry
		reqRow{1 << 40, 6, []string{""}},
	)
	withEmptySite := encodeTable(reqRow{2, 2, nil})
	cases := []struct {
		name        string
		base, delta []byte
	}{
		{"both-empty", nil, nil},
		{"empty-base", nil, a},
		{"empty-delta", a, nil},
		{"interleaved-and-equal-keys", a, b},
		{"reversed", b, a},
		{"same-table", a, a},
		{"entry-without-sites", a, withEmptySite},
		{"zero-count-header", []byte{0, 0, 0, 0}, b},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := mapMerge(tc.base, tc.delta)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mergeRequested(tc.base, tc.delta)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("merge differs from the map merge:\n got %x\nwant %x", got, want)
			}
		})
	}

	// Every strict non-empty prefix of a table, and a table with a trailing
	// byte, is malformed on either side of the merge — whether or not the
	// other side is empty.
	t.Run("truncated", func(t *testing.T) {
		for _, other := range [][]byte{nil, b} {
			for n := 1; n < len(a); n++ {
				bad := a[:n]
				if _, err := mapMerge(bad, other); err == nil {
					t.Fatalf("reference decoder accepted a %d-byte prefix", n)
				}
				if _, err := mergeRequested(bad, other); err == nil {
					t.Fatalf("base truncated to %d of %d bytes merged without error", n, len(a))
				}
				if _, err := mergeRequested(other, bad); err == nil {
					t.Fatalf("delta truncated to %d of %d bytes merged without error", n, len(a))
				}
			}
			trailing := append(slices.Clone(a), 0)
			if _, err := mergeRequested(trailing, other); err == nil {
				t.Fatal("trailing byte in base merged without error")
			}
			if _, err := mergeRequested(other, trailing); err == nil {
				t.Fatal("trailing byte in delta merged without error")
			}
		}
	})

	// A huge declared site count over a short buffer fails fast.
	t.Run("oversized-count", func(t *testing.T) {
		bad := binary.LittleEndian.AppendUint32(nil, 1)
		bad = binary.LittleEndian.AppendUint64(bad, 1)
		bad = binary.LittleEndian.AppendUint32(bad, 0)
		bad = binary.LittleEndian.AppendUint32(bad, 1<<31)
		if _, err := mergeRequested(bad, nil); err == nil {
			t.Fatal("entry claiming 2^31 sites merged without error")
		}
	})
}

// randomGeneration builds one sorted, capture-shaped generation: every
// keyed section is either absent or a sorted run of random rows, records
// may sit below the generation's own eviction floor, and the requested
// table is canonical.
func randomGeneration(rng *rand.Rand, floor int32, resultBase int) *snapState {
	g := &snapState{Schema: snapSchemaVersion, CurDay: rng.Intn(100), EvictFloor: floor,
		NextIndex: rng.Intn(1000)}
	// Each keyed section is absent a third of the time.
	present := func() bool { return rng.Intn(3) > 0 }
	if present() {
		for id := uint64(0); id < 12; id++ {
			if rng.Intn(3) == 0 {
				g.Devices = append(g.Devices, deviceState{ID: id,
					Slots: []byte{byte(rng.Intn(256))}, Denials: uint64(rng.Intn(3))})
			}
		}
	}
	if present() {
		for dev := uint64(0); dev < 6; dev++ {
			for e := int32(-3); e < 8; e++ {
				if rng.Intn(6) == 0 {
					g.Records = append(g.Records, recordState{Device: dev, Epoch: e,
						Events: []byte{byte(rng.Intn(256))}})
				}
			}
		}
	}
	if present() {
		for _, site := range []string{"a.example", "b.example"} {
			for _, product := range []string{"p0", "p1", "p2"} {
				if rng.Intn(3) == 0 {
					g.Streams = append(g.Streams, streamSnap{Site: site, Product: product,
						Seq: rng.Intn(10), Pending: []byte{byte(rng.Intn(256))}})
				}
			}
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		g.Results = append(g.Results, resultState{Querier: "a.example", Index: resultBase + i})
	}
	var rows []reqRow
	for dev := uint64(0); dev < 6; dev++ {
		for e := int32(-2); e < 4; e++ {
			if rng.Intn(5) == 0 {
				rows = append(rows, reqRow{dev, e, []string{"a.example", "b.example"}[:1+rng.Intn(2)]})
			}
		}
	}
	g.Requested = encodeTable(rows...)
	return g
}

// TestChainFoldMatchesReferenceRandom folds random chains — eviction
// floors that rise, stall and fall, deltas with records below their own
// floor, empty sections on either side — and compares the fold after every
// delta with the reference fold of the same payloads.
func TestChainFoldMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		floor := int32(-4)
		var payloads [][]byte
		for i := 0; i < 10; i++ {
			floor += int32(rng.Intn(4)) - 1
			payload, err := json.Marshal(randomGeneration(rng, floor, 10*i))
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, payload)

			fold, err := foldChain(payloads)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(fold.snapshot())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceFold(payloads)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d generations: fold differs from the reference\n got %s\nwant %s",
					seed, len(payloads), got, want)
			}
		}
	}
}
