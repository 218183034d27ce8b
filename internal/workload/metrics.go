package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/events"
)

// consumedAt returns the privacy loss the system attributes to a
// (device, epoch) pair for one querier. For on-device systems this reads the
// device's own filter; for IPA-like every device is charged the central
// filter's consumption (the coarseness of population-level accounting,
// Thm. 3).
func (r *Run) consumedAt(dev events.DeviceID, q events.Site, e events.Epoch) float64 {
	switch r.Config.System {
	case IPALike:
		return r.central.Consumed(q, e)
	default:
		return r.fleet.ConsumedAt(dev, q, e)
	}
}

// BudgetStats returns the average and maximum budget consumption across all
// device-epochs requested through the run's queries — the Fig. 4 metrics.
// A device-epoch requested by several queriers contributes the sum of its
// per-querier losses, and the values are normalized by ε^G so they read as
// "fraction of the epoch's budget spent".
func (r *Run) BudgetStats() (avg, max float64) {
	n := r.requested.Len()
	if n == 0 || r.Config.EpsilonG == 0 {
		return 0, 0
	}
	// The set iterates in canonical order, so float accumulation is
	// deterministic run-to-run.
	sum := 0.0
	for key, sites := range r.requested.All() {
		total := 0.0
		for _, q := range sites {
			total += r.consumedAt(key.Device, q, key.Epoch)
		}
		total /= r.Config.EpsilonG
		sum += total
		if total > max {
			max = total
		}
	}
	return sum / float64(n), max
}

// EpochSpan returns the number of epochs any query window can touch
// (including the pre-trace epochs early attribution windows reach into).
func (r *Run) EpochSpan() int { return int(r.lastSpanEpoch-r.firstSpanEpoch) + 1 }

// PopulationAvgBudget returns the average normalized budget consumption
// over *all* device-epochs in the population (devices × reachable epochs) —
// the fixed-denominator metric of Fig. 5a. It is monotone over the run
// because filters only fill.
func (r *Run) PopulationAvgBudget() float64 {
	denom := float64(r.Config.Dataset.PopulationDevices) * float64(r.EpochSpan()) * r.Config.EpsilonG
	if denom == 0 {
		return 0
	}
	return r.totalConsumed / denom
}

// CumulativeAvgBudget returns, after each query in submission order, the
// population-average normalized budget consumption — the Fig. 5a series.
func (r *Run) CumulativeAvgBudget() []float64 {
	out := make([]float64, len(r.Results))
	for i := range r.Results {
		out[i] = r.Results[i].avgBudgetAfter
	}
	return out
}

// RMSREs returns the realized RMSRE of every executed query.
func (r *Run) RMSREs() []float64 {
	var out []float64
	for _, res := range r.Results {
		if res.Executed && !math.IsNaN(res.RMSRE) {
			out = append(out, res.RMSRE)
		}
	}
	return out
}

// ExecutedFraction returns the fraction of queries that executed (1 for
// on-device systems; below 1 for IPA-like once budget depletes).
func (r *Run) ExecutedFraction() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	n := 0
	for _, res := range r.Results {
		if res.Executed {
			n++
		}
	}
	return float64(n) / float64(len(r.Results))
}

// PerPairAverages returns one value per (device, advertiser) pair: the
// average normalized budget consumption across all trace epochs within that
// advertiser's filters on that device — the Fig. 6a/6d metric. Devices that
// never consumed anything contribute zeros (for on-device systems) or the
// central per-epoch average (for IPA-like), exactly as the population-wide
// CDF requires.
func (r *Run) PerPairAverages() []float64 {
	epochs := r.EpochSpan()
	if epochs == 0 || r.Config.EpsilonG == 0 {
		return nil
	}
	advs := r.Config.Dataset.Advertisers
	population := r.Config.Dataset.PopulationDevices
	out := make([]float64, 0, population*len(advs))

	if r.Config.System == IPALike {
		for _, adv := range advs {
			sum := 0.0
			for e := r.firstSpanEpoch; e <= r.lastSpanEpoch; e++ {
				sum += r.central.Consumed(adv.Site, e)
			}
			avg := sum / float64(epochs) / r.Config.EpsilonG
			for d := 0; d < population; d++ {
				out = append(out, avg)
			}
		}
		return out
	}

	// On-device: read each active device's per-querier totals once, then
	// pad with zeros for silent devices.
	r.fleet.Range(func(d *core.Device) bool {
		perQuerier := d.ConsumedByQuerier()
		for _, adv := range advs {
			out = append(out, perQuerier[adv.Site]/float64(epochs)/r.Config.EpsilonG)
		}
		return true
	})
	silent := population - r.fleet.Len()
	for i := 0; i < silent*len(advs); i++ {
		out = append(out, 0)
	}
	return out
}

// ConsumedByQuerier returns each querier's total consumed privacy loss
// summed across the device fleet — the per-querier budget footprint the
// hostile-traffic reports break out. Devices accumulate in ascending ID
// order and each device's epochs in ascending epoch order, so the float
// sums are deterministic run-to-run. For IPA-like runs the central filter's
// per-epoch consumption is charged to every device in the population,
// mirroring PerPairAverages.
func (r *Run) ConsumedByQuerier() map[events.Site]float64 {
	out := make(map[events.Site]float64, len(r.Config.Dataset.Advertisers))
	if r.Config.System == IPALike {
		for _, adv := range r.Config.Dataset.Advertisers {
			sum := 0.0
			for e := r.firstSpanEpoch; e <= r.lastSpanEpoch; e++ {
				sum += r.central.Consumed(adv.Site, e)
			}
			out[adv.Site] = sum * float64(r.Config.Dataset.PopulationDevices)
		}
		return out
	}
	r.fleet.Range(func(d *core.Device) bool {
		for q, total := range d.ConsumedByQuerier() {
			out[q] += total
		}
		return true
	})
	return out
}

// BudgetDenials returns the total number of budget charges denied across the
// device fleet — how often traffic (honest or hostile) ran into filter
// capacities. Always 0 for IPA-like runs, which reject whole queries at the
// central filter instead of denying per-device charges.
func (r *Run) BudgetDenials() uint64 {
	if r.Config.System == IPALike {
		return 0
	}
	var n uint64
	r.fleet.Range(func(d *core.Device) bool {
		n += d.BudgetDenials()
		return true
	})
	return n
}

// RangeDevices visits every device the run instantiated, stopping early if
// fn returns false — the inspection hook the robustness property tests use
// to audit per-device ledgers (filter never over capacity, honest lanes
// untouched by hostile queriers). Visit order is the fleet's shard order;
// callers needing determinism sort what they collect.
func (r *Run) RangeDevices(fn func(d *core.Device) bool) { r.fleet.Range(fn) }

// ActiveDevices returns the number of devices that generated at least one
// report.
func (r *Run) ActiveDevices() int { return r.fleet.Len() }

// RequestedDeviceEpochs returns the number of distinct device-epochs touched
// by at least one query.
func (r *Run) RequestedDeviceEpochs() int { return r.requested.Len() }
