package workload

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/stream"
)

// referenceBudgetStats recomputes the Fig. 4 metrics the way the map-based
// accounting did: replay the run's plan into a map of per-device-epoch
// querier sets, then sum consumedAt over sorted keys and sorted sites. It
// also returns the number of device-epochs more than one querier touched.
func referenceBudgetStats(r *Run) (avg, max float64, n, multi int) {
	type key struct {
		d events.DeviceID
		e events.Epoch
	}
	ref := make(map[key]map[events.Site]struct{})
	for _, p := range r.plan() {
		for _, conv := range p.batch {
			req := r.request(p.advertiser, p.product, conv, p.epsilon)
			for e := req.FirstEpoch; e <= req.LastEpoch; e++ {
				k := key{conv.Device, e}
				if ref[k] == nil {
					ref[k] = make(map[events.Site]struct{})
				}
				ref[k][p.advertiser.Site] = struct{}{}
			}
		}
	}
	keys := make([]key, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.d != b.d {
			if a.d < b.d {
				return -1
			}
			return 1
		}
		return int(a.e) - int(b.e)
	})
	sum := 0.0
	for _, k := range keys {
		sites := make([]events.Site, 0, len(ref[k]))
		for q := range ref[k] {
			sites = append(sites, q)
		}
		slices.Sort(sites)
		if len(sites) > 1 {
			multi++
		}
		total := 0.0
		for _, q := range sites {
			total += r.consumedAt(k.d, q, k.e)
		}
		total /= r.Config.EpsilonG
		sum += total
		if total > max {
			max = total
		}
	}
	if len(keys) == 0 {
		return 0, 0, 0, 0
	}
	return sum / float64(len(keys)), max, len(keys), multi
}

var errCrash = errors.New("injected crash")

// TestBudgetStatsMatchesMapReference checks the Fig. 4 metrics of seeded
// random multi-advertiser scenarios against referenceBudgetStats, bit for
// bit, for every system (IPA-like reads the per-querier sets through the
// central filter) and for batch, streaming, and crash-resumed streaming
// runs — the last restores the requested set from a checkpoint and keeps
// marking on it.
func TestBudgetStatsMatchesMapReference(t *testing.T) {
	multi := 0
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		dcfg := dataset.DefaultCriteoConfig()
		dcfg.Seed = seed
		dcfg.Advertisers = 3 + rng.Intn(4)
		dcfg.Users = 150 + rng.Intn(200)
		dcfg.TotalConversions = 2500
		dcfg.DurationDays = 40
		dcfg.MinBatch = 60
		ds, err := dataset.Criteo(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []System{CookieMonster, ARALike, IPALike} {
			cfg := Config{Dataset: ds, System: sys, EpsilonG: 1, FixedEpsilon: 0.05, Seed: seed, Parallelism: 2}
			batch := execute(t, cfg)
			streamed, err := ExecuteStream(cfg)
			if err != nil {
				t.Fatal(err)
			}

			durable := cfg
			durable.CheckpointDir = t.TempDir()
			durable.SnapshotEveryDays = 5
			commits := 0
			durable.FaultHook = func(p stream.FaultPoint) error {
				if p == stream.PointSnapshotCommitted {
					if commits++; commits == 3 {
						return errCrash
					}
				}
				return nil
			}
			if _, err := ExecuteStream(durable); !errors.Is(err, errCrash) {
				t.Fatalf("seed %d %v: crash run: %v", seed, sys, err)
			}
			durable.FaultHook = nil
			durable.Resume = true
			resumed, err := ExecuteStream(durable)
			if err != nil {
				t.Fatalf("seed %d %v: resume: %v", seed, sys, err)
			}

			for _, tc := range []struct {
				mode string
				r    *Run
			}{{"batch", batch}, {"stream", streamed}, {"resumed", resumed}} {
				wantAvg, wantMax, wantN, m := referenceBudgetStats(tc.r)
				avg, max := tc.r.BudgetStats()
				if math.Float64bits(avg) != math.Float64bits(wantAvg) ||
					math.Float64bits(max) != math.Float64bits(wantMax) {
					t.Fatalf("seed %d %v %s: BudgetStats (%v, %v), reference (%v, %v)",
						seed, sys, tc.mode, avg, max, wantAvg, wantMax)
				}
				if n := tc.r.RequestedDeviceEpochs(); n != wantN || n == 0 {
					t.Fatalf("seed %d %v %s: RequestedDeviceEpochs %d, reference %d",
						seed, sys, tc.mode, n, wantN)
				}
				multi += m
			}
		}
	}
	if multi == 0 {
		t.Fatal("no scenario touched a device-epoch from more than one querier")
	}
}
