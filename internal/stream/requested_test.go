package stream

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/events"
)

// TestRequestedSetMatchesMapReference marks random report windows into a
// RequestedSet and into the map-based reference accounting (fold_test.go):
// several queriers per device-epoch, overlapping windows, repeated and
// empty windows, device IDs across the whole uint64 range. After every
// round the set must encode to exactly the reference bytes, decode and
// re-encode to the same bytes, iterate the reference's keys and sites in
// sorted order, and drain as its delta exactly the entries marked since the
// previous drain. At random rounds the set is replaced by its own decoding,
// as a restore does, and marking continues on the restored set.
func TestRequestedSetMatchesMapReference(t *testing.T) {
	sites := []events.Site{"c.example", "a.example", "b.example", "ab.example", ""}
	multi, restores := 0, 0
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set := NewRequestedSet()
		set.trackDirty()
		ref := make(map[DevEpoch]map[events.Site]struct{})
		for round := 0; round < 20; round++ {
			marked := make(map[DevEpoch]map[events.Site]struct{})
			for i := rng.Intn(30); i > 0; i-- {
				dev := events.DeviceID(rng.Intn(8))
				if rng.Intn(4) == 0 {
					dev = events.DeviceID(rng.Uint64())
				}
				q := sites[rng.Intn(len(sites))]
				first := events.Epoch(rng.Intn(12) - 4)
				last := first + events.Epoch(rng.Intn(4)) - 1 // may be empty
				set.Mark(dev, q, first, last)
				for e := first; e <= last; e++ {
					key := DevEpoch{dev, e}
					if ref[key] == nil {
						ref[key] = make(map[events.Site]struct{})
					}
					ref[key][q] = struct{}{}
					marked[key] = ref[key]
				}
			}

			if got, want := set.drainDirty(), encodeRequested(marked); !bytes.Equal(got, want) {
				t.Fatalf("seed %d round %d: delta drain differs from the reference\n got %x\nwant %x",
					seed, round, got, want)
			}
			enc := set.encode()
			if want := encodeRequested(ref); !bytes.Equal(enc, want) {
				t.Fatalf("seed %d round %d: encoding differs from the reference\n got %x\nwant %x",
					seed, round, enc, want)
			}
			if set.Len() != len(ref) {
				t.Fatalf("seed %d round %d: Len %d, reference %d", seed, round, set.Len(), len(ref))
			}
			var keys []DevEpoch
			for key, got := range set.All() {
				keys = append(keys, key)
				want := slices.Sorted(maps.Keys(ref[key]))
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d round %d: %v sites %q, reference %q", seed, round, key, got, want)
				}
				if len(got) > 1 {
					multi++
				}
			}
			if !slices.IsSortedFunc(keys, DevEpoch.compare) || len(keys) != len(ref) {
				t.Fatalf("seed %d round %d: iteration is not the reference's sorted keys", seed, round)
			}

			back, err := decodeRequestedSet(enc)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if got := back.encode(); !bytes.Equal(got, enc) {
				t.Fatalf("seed %d round %d: decode → encode does not round-trip", seed, round)
			}
			if rng.Intn(4) == 0 {
				set = back
				set.trackDirty()
				restores++
			}
		}
	}
	if multi == 0 || restores == 0 {
		t.Fatalf("property never exercised multi-querier entries (%d) or restores (%d)", multi, restores)
	}
}
