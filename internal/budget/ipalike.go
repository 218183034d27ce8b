// Package budget implements the off-device budgeting baseline: the paper's
// IPA-like system (§6.1), in which DP budgeting happens centrally at the
// MPC, with one privacy filter per (querier, epoch) shared by the whole
// device population. Under traditional DP the central filter must charge the
// query's full ε to every epoch the query touches, regardless of which
// devices actually contributed data (Thm. 3) — the coarseness Cookie
// Monster's IDP formulation eliminates.
package budget

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/events"
	"repro/internal/privacy"
)

// IPALike is the centralized budgeter. Unlike the on-device systems it
// rejects queries outright when budget is insufficient (it has no need to
// hide budget state: the budget is population-level, not data-dependent).
type IPALike struct {
	capacity float64

	mu      sync.Mutex
	filters map[events.Site]map[events.Epoch]*privacy.Filter
}

// NewIPALike returns a central budgeter with per-epoch capacity epsG for
// each querier.
func NewIPALike(epsG float64) *IPALike {
	if epsG < 0 {
		panic("budget: negative capacity")
	}
	return &IPALike{
		capacity: epsG,
		filters:  make(map[events.Site]map[events.Epoch]*privacy.Filter),
	}
}

// filter returns (lazily creating) the central filter for (querier, epoch).
// Callers must hold b.mu.
func (b *IPALike) filter(q events.Site, e events.Epoch) *privacy.Filter {
	byEpoch := b.filters[q]
	if byEpoch == nil {
		byEpoch = make(map[events.Epoch]*privacy.Filter)
		b.filters[q] = byEpoch
	}
	f := byEpoch[e]
	if f == nil {
		f = privacy.NewFilter(b.capacity)
		byEpoch[e] = f
	}
	return f
}

// Authorize checks that querier q can spend eps on every epoch in
// [first, last] and, if so, consumes it from all of them atomically.
// If any epoch lacks budget it consumes nothing and returns
// privacy.ErrBudgetExhausted: the query is rejected (IPA refuses further
// queries until the per-site budget refreshes, §2.2).
func (b *IPALike) Authorize(q events.Site, first, last events.Epoch, eps float64) error {
	if eps < 0 {
		panic("budget: negative epsilon")
	}
	if last < first {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for e := first; e <= last; e++ {
		if !b.filter(q, e).CanConsume(eps) {
			return privacy.ErrBudgetExhausted
		}
	}
	for e := first; e <= last; e++ {
		if err := b.filter(q, e).Consume(eps); err != nil {
			// Unreachable: we hold the lock and just checked.
			panic("budget: central consume failed after check")
		}
	}
	return nil
}

// Consumed returns the budget querier q has consumed from epoch e's central
// filter. Under centralized DP this is the privacy loss charged to *every*
// device for that epoch, which is how the experiments attribute IPA
// consumption to device-epochs.
func (b *IPALike) Consumed(q events.Site, e events.Epoch) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	byEpoch := b.filters[q]
	if byEpoch == nil {
		return 0
	}
	f := byEpoch[e]
	if f == nil {
		return 0
	}
	return f.Consumed()
}

// Capacity returns the per-epoch capacity.
func (b *IPALike) Capacity() float64 { return b.capacity }

// FilterRow is one initialized (querier, epoch) central filter, the unit of
// the checkpoint snapshot.
type FilterRow struct {
	Querier  events.Site
	Epoch    events.Epoch
	Consumed float64
}

// Rows returns every initialized central filter's consumed budget, sorted by
// querier then epoch — the checkpoint snapshot source.
func (b *IPALike) Rows() []FilterRow {
	b.mu.Lock()
	defer b.mu.Unlock()
	var rows []FilterRow
	for q, byEpoch := range b.filters {
		for e, f := range byEpoch {
			rows = append(rows, FilterRow{Querier: q, Epoch: e, Consumed: f.Consumed()})
		}
	}
	slices.SortFunc(rows, func(x, y FilterRow) int {
		return cmp.Or(cmp.Compare(x.Querier, y.Querier), cmp.Compare(x.Epoch, y.Epoch))
	})
	return rows
}

// Restore sets one central filter's consumed budget from a persisted row.
// Consumption is charged through the filter's own check-and-consume path on
// a fresh filter, so a row that would exceed capacity is rejected rather
// than silently clamped — a corrupt snapshot must not manufacture budget
// headroom or hide an exhausted filter.
func (b *IPALike) Restore(q events.Site, e events.Epoch, consumed float64) error {
	if consumed < 0 {
		return fmt.Errorf("budget: negative restored consumption %v for %s/%d", consumed, q, e)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	f := b.filter(q, e)
	if already := f.Consumed(); already > consumed {
		return fmt.Errorf("budget: restore would refund %s/%d from %v to %v", q, e, already, consumed)
	} else if already > 0 {
		consumed -= already
	}
	if err := f.Consume(consumed); err != nil {
		return fmt.Errorf("budget: restoring %s/%d: %w", q, e, err)
	}
	return nil
}
