package privacy

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// ChargeOutcome is the per-epoch result of a ledger charge — the three-way
// branch of Listing 1's step 3 plus the zero-loss shortcut.
type ChargeOutcome uint8

const (
	// ChargeZero: no loss was requested; the epoch's slot is untouched and
	// its events survive (the zero-loss optimization of Thm. 4 case 1).
	ChargeZero ChargeOutcome = iota
	// ChargeOK: the loss fit and was deducted; the epoch's events survive.
	ChargeOK
	// ChargeDenied: admitting the loss would overflow the slot's capacity
	// (the Halt outcome of Eq. 3); nothing was deducted. The slot is still
	// initialized, exactly as a rejected Filter was still created.
	ChargeDenied
	// ChargeEvicted: the epoch sits below the retention floor; it is
	// permanently out of scope and nothing was deducted.
	ChargeEvicted
)

// Ledger is the flat on-device budget table: for each querier, a dense array
// of consumed-ε slots covering the live attribution window, all sharing one
// capacity ε^G and one mutex. It replaces a map[querier]map[epoch]*Filter —
// and with it the per-epoch pointer chase, the per-Filter mutex, and the
// per-Filter allocation — on the report hot path, while keeping Filter
// semantics slot for slot: the same check-and-consume arithmetic, the same
// 1e-9 boundary tolerance, the same "a rejected charge still initializes the
// slot" behavior.
//
// The ledger is floor-aware: epochs strictly below the retention floor are
// permanently out of scope, and AdvanceFloor recycles their slots in O(1)
// per querier by re-slicing the lane head forward instead of deleting map
// entries (only counting the released slots is linear in what was dropped).
// Lanes grow lazily to span exactly the epochs a querier has touched, so
// memory stays proportional to the live window.
//
// All methods are safe for concurrent use; ChargeWindow performs a whole
// report's check-and-consume sequence under a single lock acquisition.
type Ledger struct {
	mu       sync.Mutex
	capacity float64
	floor    int64
	lanes    map[string]*ledgerLane
	// denials counts ChargeDenied outcomes over the ledger's lifetime —
	// the budget-drain telemetry behind the hostile-traffic scenarios.
	// It never influences charge outcomes, but it is persisted in
	// snapshots (and restored via RestoreDenials) so the drain telemetry
	// survives crash recovery.
	denials uint64
	// version counts observable mutations — slot initializations, charges,
	// denials, floor advances, restores. The incremental checkpointer
	// compares it against the version it last captured to decide whether a
	// device's ledger is dirty, so every path that can change Rows() or
	// Denials() output must bump it.
	version uint64
	// capOv holds per-slot capacity overrides, populated only when Restore
	// loads a snapshot row whose capacity differs from the ledger's. nil in
	// every live-traffic ledger, so the hot path never consults it.
	capOv map[string]map[int64]float64
}

// ledgerLane is one querier's dense slot array: consumed[i] is the budget
// consumed from epoch base+i, with untouchedSlot marking slots whose epoch
// was never charged (the analogue of "no Filter was ever created").
type ledgerLane struct {
	base     int64
	consumed []float64
}

// untouchedSlot marks a slot whose (querier, epoch) filter was never
// initialized. Consumed loss is never negative, so the sentinel is
// unambiguous.
const untouchedSlot = -1

// LedgerEntry is one initialized (querier, epoch) slot, the unit of the
// dashboard and persistence snapshots.
type LedgerEntry struct {
	Querier  string
	Epoch    int64
	Consumed float64
	Capacity float64
}

// NewLedger returns a ledger whose slots all have budget capacity ε^G.
// It panics if capacity is negative.
func NewLedger(capacity float64) *Ledger {
	if capacity < 0 {
		panic("privacy: negative ledger capacity")
	}
	return &Ledger{
		capacity: capacity,
		floor:    -1 << 31,
		lanes:    make(map[string]*ledgerLane),
	}
}

// Capacity returns the uniform per-slot budget capacity ε^G.
func (l *Ledger) Capacity() float64 { return l.capacity }

// Floor returns the current retention floor: epochs strictly below it are
// permanently out of scope.
func (l *Ledger) Floor() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// slot returns a pointer to the lane's slot for epoch e, growing the dense
// array in either direction as needed. Growth toward older epochs copies
// (attribution windows reach back a bounded number of epochs); growth toward
// newer epochs is an amortized-O(1) append.
func (ln *ledgerLane) slot(e int64) *float64 {
	if len(ln.consumed) == 0 {
		ln.base = e
		ln.consumed = append(ln.consumed[:0], untouchedSlot)
		return &ln.consumed[0]
	}
	if e < ln.base {
		grow := int(ln.base - e)
		widened := make([]float64, grow+len(ln.consumed))
		for i := 0; i < grow; i++ {
			widened[i] = untouchedSlot
		}
		copy(widened[grow:], ln.consumed)
		ln.consumed = widened
		ln.base = e
	}
	for int(e-ln.base) >= len(ln.consumed) {
		ln.consumed = append(ln.consumed, untouchedSlot)
	}
	return &ln.consumed[e-ln.base]
}

// lane returns (lazily creating) querier q's slot array.
func (l *Ledger) lane(q string) *ledgerLane {
	ln := l.lanes[q]
	if ln == nil {
		ln = &ledgerLane{}
		l.lanes[q] = ln
	}
	return ln
}

// capAt returns the capacity in force for one slot: the uniform ε^G unless a
// restored snapshot recorded an override.
func (l *Ledger) capAt(q string, e int64) float64 {
	if l.capOv != nil {
		if byEpoch := l.capOv[q]; byEpoch != nil {
			if c, ok := byEpoch[e]; ok {
				return c
			}
		}
	}
	return l.capacity
}

// chargeSlotLocked is the slot-level check-and-consume on an already-resolved
// lane. Caller holds l.mu.
func (l *Ledger) chargeSlotLocked(ln *ledgerLane, q string, e int64, eps float64) ChargeOutcome {
	// Every path below mutates persisted state: a denial initializes the
	// slot and counts, a success deducts.
	l.version++
	c := ln.slot(e)
	if *c == untouchedSlot {
		*c = 0
	}
	limit := l.capAt(q, e)
	// Tolerate float rounding at the boundary, exactly as Filter.Consume.
	if *c+eps > limit*(1+1e-9) {
		l.denials++
		return ChargeDenied
	}
	*c += eps
	if *c > limit {
		*c = limit
	}
	return ChargeOK
}

// chargeLocked is the single check-and-consume path. Caller holds l.mu.
func (l *Ledger) chargeLocked(q string, e int64, eps float64) ChargeOutcome {
	if eps < 0 {
		// Privacy loss is never negative; accepting one would refund budget.
		panic("privacy: negative privacy loss")
	}
	if eps == 0 {
		return ChargeZero
	}
	if e < l.floor {
		return ChargeEvicted
	}
	return l.chargeSlotLocked(l.lane(q), q, e, eps)
}

// chargeWindowLocked is one window's charge sequence with the lane lookup
// hoisted out of the per-epoch loop. The lane resolves on the first epoch
// that actually charges (eps > 0, at or above the floor), so lazy lane
// creation is exactly as observable as per-epoch chargeLocked calls.
func (l *Ledger) chargeWindowLocked(q string, first int64, losses []float64, outcomes []ChargeOutcome) {
	var ln *ledgerLane
	for i, eps := range losses {
		switch {
		case eps < 0:
			panic("privacy: negative privacy loss")
		case eps == 0:
			outcomes[i] = ChargeZero
		case first+int64(i) < l.floor:
			outcomes[i] = ChargeEvicted
		default:
			if ln == nil {
				ln = l.lane(q)
			}
			outcomes[i] = l.chargeSlotLocked(ln, q, first+int64(i), eps)
		}
	}
}

// Charge atomically checks whether eps more privacy loss fits into querier
// q's slot for epoch e and, if so, deducts it.
func (l *Ledger) Charge(q string, e int64, eps float64) ChargeOutcome {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chargeLocked(q, e, eps)
}

// ChargeWindow runs the check-and-consume sequence for a whole attribution
// window under one lock acquisition: losses[i] is the loss requested from
// epoch first+i, and outcomes[i] receives the per-epoch result. Epochs are
// charged independently in ascending order, so the outcomes are identical to
// len(losses) individual Charge calls — the batching only amortizes the lock.
// It panics if outcomes is shorter than losses.
func (l *Ledger) ChargeWindow(q string, first int64, losses []float64, outcomes []ChargeOutcome) {
	_ = outcomes[:len(losses)]
	l.mu.Lock()
	defer l.mu.Unlock()
	l.chargeWindowLocked(q, first, losses, outcomes)
}

// WindowCharge is one report's whole-window check-and-consume in a batched
// charge: Losses[i] is the loss requested from epoch First+i by Querier, and
// Outcomes[i] receives the per-epoch result. Losses and Outcomes are caller
// buffers; ChargeWindowBatch only reads Losses and writes Outcomes.
type WindowCharge struct {
	Querier  string
	First    int64
	Losses   []float64
	Outcomes []ChargeOutcome
}

// ChargeWindowBatch runs several reports' check-and-consume sequences under
// a single lock acquisition: charges execute in slice order, each window's
// epochs in ascending order — the exact sequence len(charges) individual
// ChargeWindow calls would produce, so outcomes are bit-identical to the
// one-at-a-time path by construction. This is the generate stage's
// per-device vectorized charge: a device visited by Q same-day queriers
// takes one ledger lock instead of Q.
// It panics if any charge's Outcomes is shorter than its Losses.
func (l *Ledger) ChargeWindowBatch(charges []WindowCharge) {
	for i := range charges {
		_ = charges[i].Outcomes[:len(charges[i].Losses)]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ch := range charges {
		l.chargeWindowLocked(ch.Querier, ch.First, ch.Losses, ch.Outcomes)
	}
}

// Denials returns the number of charges this ledger has denied for lack of
// budget, across all queriers and epochs. Every denial path (Charge,
// ChargeWindow, ChargeWindowBatch) counts here; evicted-epoch and zero-loss
// outcomes do not.
func (l *Ledger) Denials() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.denials
}

// RestoreDenials reinstates a persisted denial count. The counter only ever
// grows, so restore keeps the larger of the two — a fresh ledger takes the
// snapshot's count, and replaying an old snapshot over live state never
// loses denials.
func (l *Ledger) RestoreDenials(n uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.denials {
		l.denials = n
		l.version++
	}
}

// Version returns the mutation counter: it advances on every observable
// change to the ledger's persisted state (slot initializations, charges,
// denials, floor advances, restores). The incremental checkpointer uses it
// as the dirty bit — equal versions guarantee identical Rows() and
// Denials() output.
func (l *Ledger) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// Consumed returns the privacy loss consumed so far by querier q from epoch
// e (0 if the slot was never touched or was recycled by a floor advance).
func (l *Ledger) Consumed(q string, e int64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	ln := l.lanes[q]
	if ln == nil {
		return 0
	}
	i := e - ln.base
	if i < 0 || int(i) >= len(ln.consumed) || ln.consumed[i] == untouchedSlot {
		return 0
	}
	return ln.consumed[i]
}

// NumQueriers returns the number of queriers with a lane (touched at least
// once, even if every slot has since been recycled) — the pre-sizing hint
// for per-querier aggregation maps.
func (l *Ledger) NumQueriers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lanes)
}

// RangeTotals calls fn once per querier with the querier's total consumed
// budget across all live epochs. Each total accumulates in ascending epoch
// order — the dense array's natural order — so the float sums are
// deterministic run-to-run; querier visit order is unspecified.
func (l *Ledger) RangeTotals(fn func(q string, total float64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for q, ln := range l.lanes {
		sum := 0.0
		for _, c := range ln.consumed {
			if c != untouchedSlot {
				sum += c
			}
		}
		fn(q, sum)
	}
}

// Rows returns a snapshot of every initialized slot, sorted by querier then
// epoch — the Fig. 1 dashboard view and the persistence snapshot source.
func (l *Ledger) Rows() []LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rows []LedgerEntry
	for q, ln := range l.lanes {
		for i, c := range ln.consumed {
			if c == untouchedSlot {
				continue
			}
			e := ln.base + int64(i)
			rows = append(rows, LedgerEntry{
				Querier:  q,
				Epoch:    e,
				Consumed: c,
				Capacity: l.capAt(q, e),
			})
		}
	}
	slices.SortFunc(rows, func(a, b LedgerEntry) int {
		return cmp.Or(cmp.Compare(a.Querier, b.Querier), cmp.Compare(a.Epoch, b.Epoch))
	})
	return rows
}

// AdvanceFloor raises the retention floor and recycles the slots of evicted
// epochs. The floor never moves backwards; calls with a lower value are
// no-ops. It returns the number of initialized slots released. Dropping a
// lane's dead prefix is a re-slice — O(1) per querier — with only the
// released-slot count costing a scan of what was dropped.
func (l *Ledger) AdvanceFloor(floor int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if floor <= l.floor {
		return 0
	}
	l.floor = floor
	l.version++
	released := 0
	for _, ln := range l.lanes {
		if floor <= ln.base || len(ln.consumed) == 0 {
			continue
		}
		drop := int(floor - ln.base)
		if drop > len(ln.consumed) {
			drop = len(ln.consumed)
		}
		for _, c := range ln.consumed[:drop] {
			if c != untouchedSlot {
				released++
			}
		}
		ln.consumed = ln.consumed[drop:]
		ln.base += int64(drop)
	}
	for q, byEpoch := range l.capOv {
		for e := range byEpoch {
			if e < floor {
				delete(byEpoch, e)
			}
		}
		if len(byEpoch) == 0 {
			delete(l.capOv, q)
		}
	}
	return released
}

// Restore sets one slot's state from a persisted snapshot row. It refuses to
// lower a slot's consumed budget (replaying an old snapshot must never
// refund privacy loss) and to resurrect an epoch below the retention floor.
// A capacity differing from the ledger's ε^G is honored per slot, as the old
// per-filter table did.
func (l *Ledger) Restore(q string, e int64, consumed, capacity float64) error {
	if consumed < 0 || capacity < 0 || consumed > capacity*(1+1e-9) {
		return fmt.Errorf("privacy: corrupt ledger slot %s/%d: %v of %v", q, e, consumed, capacity)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e < l.floor {
		return fmt.Errorf("privacy: restoring evicted epoch %d below floor %d", e, l.floor)
	}
	l.version++
	c := l.lane(q).slot(e)
	if *c != untouchedSlot && *c > consumed {
		return fmt.Errorf("privacy: restore would refund budget for %s epoch %d", q, e)
	}
	if consumed > capacity {
		consumed = capacity
	}
	*c = consumed
	if capacity != l.capacity {
		if l.capOv == nil {
			l.capOv = make(map[string]map[int64]float64)
		}
		if l.capOv[q] == nil {
			l.capOv[q] = make(map[int64]float64)
		}
		l.capOv[q][e] = capacity
	} else if l.capOv != nil && l.capOv[q] != nil {
		delete(l.capOv[q], e)
	}
	return nil
}
