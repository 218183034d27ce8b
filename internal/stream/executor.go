package stream

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stats"
)

// This file is the streaming execution engine: everything that happens when
// the day clock fires. The batch engine (internal/workload) is the
// specification this code must match bit for bit — see the package comment
// for the three order-preserving properties the equivalence rests on.

// convOutput is one conversion's generate-stage result. On-device runs carry
// the fold-ready core.ReportStats instead of a full Diagnostics; the
// generate stage reuses per-worker scratch and never materializes one.
type convOutput struct {
	report *core.Report
	stats  core.ReportStats
	truth  float64 // Central path: the true report value
}

// flushDue executes every query whose batch filled during the current day,
// in the canonical (site, product, seq) order that matches the batch plan's
// (fireDay, site, product, seq) total order.
func (s *Service) flushDue() error {
	if len(s.due) == 0 {
		return nil
	}
	due := s.due
	s.due = nil
	slices.SortFunc(due, func(a, b *pendingQuery) int {
		return cmp.Or(cmp.Compare(a.adv.Site, b.adv.Site), cmp.Compare(a.product, b.product), cmp.Compare(a.seq, b.seq))
	})

	// Stage 1: prepare. Requests are pure values; the requested-epoch
	// bookkeeping stays on the coordinator, in canonical order.
	for _, q := range due {
		s.prepare(q)
	}

	// Stage 2: generate — the day's queries multiplexed as one
	// device-partitioned super-batch (see generateDay).
	outputs, err := s.generateDay(due)
	if err != nil {
		return err
	}

	// Stage 3: aggregate sequentially in canonical order, folding each
	// query's per-conversion outputs in conversion order so sums and
	// noise draws are schedule-independent.
	off := 0
	var maxNonce core.Nonce
	for _, q := range due {
		out := outputs[off : off+len(q.batch)]
		off += len(q.batch)
		res, err := s.aggregate(q, out)
		if err != nil {
			return err
		}
		for _, o := range out {
			if o.report != nil && o.report.Nonce > maxNonce {
				maxNonce = o.report.Nonce
			}
		}
		res.Index = s.nextIndex
		s.nextIndex++
		res.AvgBudgetAfter = s.populationAvgBudget()
		s.run.Results = append(s.run.Results, res)
		if err := s.fault(PointQueryExecuted); err != nil {
			return err
		}
		s.observeResult(res)
	}

	// Batch completion: every nonce minted for today's queries has been
	// consumed (or the run already failed), so the replay-protection
	// entries at or below the day's high-water mark retire.
	if maxNonce > 0 {
		s.run.RetiredNonces += s.agg.Compact(maxNonce)
	}
	return nil
}

// prepare builds every conversion's attribution request for one query and
// records the device-epochs its windows touch.
func (s *Service) prepare(q *pendingQuery) {
	first, last := events.EpochWindow(q.batch[0].Day, s.cfg.WindowDays, s.cfg.EpochDays)
	q.first, q.last = first, last
	q.reqs = make([]*core.Request, len(q.batch))
	for i, conv := range q.batch {
		req := s.request(q.adv, q.product, conv, q.epsilon)
		q.reqs[i] = req
		if s.run.Requested != nil { // Lean mode keeps no accounting
			s.run.Requested.Mark(conv.Device, q.adv.Site, req.FirstEpoch, req.LastEpoch)
		}
		if req.FirstEpoch < q.first {
			q.first = req.FirstEpoch
		}
		if req.LastEpoch > q.last {
			q.last = req.LastEpoch
		}
	}
}

// request builds the attribution request for one conversion via the shared
// constructor (scenario.go), so reports are indistinguishable between modes
// by construction.
func (s *Service) request(adv dataset.Advertiser, product string, conv events.Event, eps float64) *core.Request {
	return BuildRequest(adv, product, conv, eps, s.cfg.WindowDays, s.cfg.EpochDays, s.cfg.Bias)
}

// generateDay runs the generate stage for every due query at once. The
// queries' conversions concatenate in canonical order; on-device generation
// partitions the concatenation by device so a device shared across queries
// (or across conversions of one query) executes its filter operations
// sequentially in exactly the batch engine's order, while distinct devices
// from any number of queriers run concurrently. Central runs compute true
// report values instead — side-effect-free reads needing no grouping.
// Outputs land slotted by concatenated conversion index, in day buffers the
// service reuses across days (consumed synchronously by flushDue's
// aggregation loop, so reuse is safe); together with the Generator's own
// reuse, a steady-state day flush allocates only the reports it returns.
func (s *Service) generateDay(due []*pendingQuery) ([]convOutput, error) {
	total := 0
	for _, q := range due {
		total += len(q.batch)
	}
	convs := s.dayConvs[:0]
	reqs := s.dayReqs[:0]
	for _, q := range due {
		convs = append(convs, q.batch...)
		reqs = append(reqs, q.reqs...)
	}
	s.dayConvs, s.dayReqs = convs, reqs
	if cap(s.dayOut) < total {
		s.dayOut = make([]convOutput, total)
	} else {
		s.dayOut = s.dayOut[:total]
		clear(s.dayOut)
	}
	out := s.dayOut

	if s.cfg.Central {
		truths := TrueValues(s.db, reqs, convs, s.cfg.Parallelism)
		for i := range out {
			out[i].truth = truths[i]
		}
		return out, nil
	}

	reports, stats, err := s.gen.Generate(s.fleet, reqs, convs, s.cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = convOutput{report: reports[i], stats: stats[i]}
	}
	return out, nil
}

// aggregate folds one query's per-conversion outputs in conversion order and
// releases the noisy result through the trusted aggregation service (or the
// central authorize-and-noise path).
func (s *Service) aggregate(q *pendingQuery, outputs []convOutput) (Result, error) {
	res := Result{
		Querier:    q.adv.Site,
		Product:    q.product,
		Batch:      len(q.batch),
		Epsilon:    q.epsilon,
		FireDay:    q.fireDay,
		FirstEpoch: q.first,
		LastEpoch:  q.last,
	}

	if s.cfg.Central {
		err := s.central.Authorize(q.adv.Site, res.FirstEpoch, res.LastEpoch, q.epsilon)
		for i := range outputs {
			res.Truth += outputs[i].truth
		}
		if err == nil {
			res.Executed = true
			res.Estimate = res.Truth +
				s.ipaNoise.Laplace(privacy.Scale(q.adv.MaxValue, q.epsilon))
			span := float64(res.LastEpoch-res.FirstEpoch) + 1
			s.run.TotalConsumed += q.epsilon * span * float64(s.meta.PopulationDevices)
		}
		res.RMSRE = rmsre(res)
		return res, nil
	}

	reports := make([]*core.Report, len(outputs))
	for i := range outputs {
		st := outputs[i].stats
		res.Truth += st.TruthTotal
		s.run.TotalConsumed += st.TotalLoss
		if st.Denied {
			res.DeniedReports++
		}
		if st.Biased {
			res.BiasedReports++
		}
		reports[i] = outputs[i].report
	}
	out, err := s.agg.Execute(reports)
	if err != nil {
		return res, fmt.Errorf("stream: aggregation failed for %s/%s#%d: %w",
			q.adv.Site, q.product, q.seq, err)
	}
	res.Executed = true
	res.Estimate = out.Aggregate.Total()
	if s.cfg.Bias != nil {
		res.BiasEstimate = BiasBound(out.BiasCount, res.Estimate, q.adv,
			q.epsilon, len(q.batch), s.cfg.Bias, s.cfg.Calibration.Beta)
	}
	res.RMSRE = rmsre(res)
	return res, nil
}

// rmsre computes the realized relative error of an executed query (NaN when
// the query was rejected).
func rmsre(res Result) float64 {
	if !res.Executed {
		return math.NaN()
	}
	return stats.RelativeError(res.Estimate, res.Truth)
}

// populationAvgBudget returns the average normalized budget consumption over
// all device-epochs in the population — the batch engine's
// PopulationAvgBudget, computed from the same folded diagnostics.
func (s *Service) populationAvgBudget() float64 {
	denom := float64(s.meta.PopulationDevices) * float64(s.epochSpan()) * s.cfg.EpsilonG
	if denom == 0 {
		return 0
	}
	return s.run.TotalConsumed / denom
}

// epochSpan returns the number of epochs any query window can touch.
func (s *Service) epochSpan() int {
	return int(s.run.LastSpanEpoch-s.run.FirstSpanEpoch) + 1
}
