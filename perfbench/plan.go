package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/serve"
	"repro/internal/stats"
)

// batch is one ingest request: a run of one device partition's events
// within one day.
type batch struct {
	events []events.Event
	body   []byte // encoded serve.IngestRequest; nil for in-process plans
}

// plan is a trace cut into batches. Devices are pinned to senders (device
// ID modulo the sender count keeps each device's events on one sender, in
// order), and senders meet at a barrier after every day, so every event
// arrives no earlier than any event of an earlier day and admission never
// drops one as late.
type plan struct {
	senders int
	events  int
	// batches is the global send order the schedule paces: day by day,
	// round-robin across senders within a day.
	batches []*batch
	// bySender lists each sender's batch indices in send order; dayEnd[s]
	// gives, per active day, the end of that day's run in bySender[s].
	bySender [][]int
	dayEnd   [][]int
	days     []int // active days, ascending
}

// batchSizer returns the next batch size.
type batchSizer func() int

func fixedSize(n int) batchSizer { return func() int { return n } }

// uniformSize draws sizes uniformly from [lo, hi] on a seeded stream.
func uniformSize(seed uint64, lo, hi int) batchSizer {
	rng := stats.Stream(seed, "perfbench/batch-size")
	return func() int { return lo + rng.Intn(hi-lo+1) }
}

// newPlan cuts ds's events into batches for senders senders. encode
// pre-serializes every request body, so the send loop does no JSON work
// and generator lateness stays a property of the send loop, not of encoding.
func newPlan(ds *dataset.Dataset, senders int, size batchSizer, encode bool) (*plan, error) {
	evs := slices.Clone(ds.Events)
	slices.SortFunc(evs, func(a, b events.Event) int {
		switch {
		case a.Before(b):
			return -1
		case b.Before(a):
			return 1
		}
		return 0
	})
	p := &plan{senders: senders, events: len(evs),
		bySender: make([][]int, senders), dayEnd: make([][]int, senders)}
	for lo := 0; lo < len(evs); {
		day := evs[lo].Day
		hi := lo
		for hi < len(evs) && evs[hi].Day == day {
			hi++
		}
		parts := make([][]events.Event, senders)
		for _, ev := range evs[lo:hi] {
			s := int(uint64(ev.Device) % uint64(senders))
			parts[s] = append(parts[s], ev)
		}
		var chunks [][]*batch
		for _, part := range parts {
			var mine []*batch
			for len(part) > 0 {
				n := min(size(), len(part), serve.MaxBatchEvents)
				b := &batch{events: part[:n]}
				if encode {
					body, err := encodeBatch(b.events)
					if err != nil {
						return nil, err
					}
					b.body = body
				}
				mine = append(mine, b)
				part = part[n:]
			}
			chunks = append(chunks, mine)
		}
		for i := 0; ; i++ {
			any := false
			for s := range chunks {
				if i < len(chunks[s]) {
					any = true
					p.bySender[s] = append(p.bySender[s], len(p.batches))
					p.batches = append(p.batches, chunks[s][i])
				}
			}
			if !any {
				break
			}
		}
		p.days = append(p.days, day)
		for s := range p.dayEnd {
			p.dayEnd[s] = append(p.dayEnd[s], len(p.bySender[s]))
		}
		lo = hi
	}
	return p, nil
}

func encodeBatch(evs []events.Event) ([]byte, error) {
	req := serve.IngestRequest{Events: make([]serve.EventWire, len(evs))}
	for i, ev := range evs {
		req.Events[i] = serve.WireFromEvent(ev)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding batch: %w", err)
	}
	return body, nil
}

// schedule fixes when each batch of a plan is due, relative to the start
// of the pass: the open-loop arrival process at one fixed event rate
// (0 = unpaced). A batch's latency is timed from its due instant, so a
// stall delays — and is charged to — every batch due during it.
type schedule struct {
	due []time.Duration // per batch, in plan order
}

func fixedRate(p *plan, eps float64) schedule {
	sc := schedule{due: make([]time.Duration, len(p.batches))}
	if eps <= 0 {
		return sc
	}
	seen := 0
	for i, b := range p.batches {
		sc.due[i] = time.Duration(float64(seen) / eps * float64(time.Second))
		seen += len(b.events)
	}
	return sc
}

// rungVerdict is one ladder rung's outcome: a whole-trace pass at Rate.
type rungVerdict struct {
	Rate      float64 `json:"rate"`
	Batches   int     `json:"batches"`
	P         float64 `json:"p"`
	TailMs    float64 `json:"tailMs"`
	Sustained bool    `json:"sustained"`
}

// verdict judges one whole-trace pass at one rate: sustained when its
// tail percentile stays within limitMs. A growing backlog fails the same
// test: latency is timed from each batch's due instant, so above capacity
// every later batch is later than the one before, and the pass's tail is
// the backlog it ends with.
func verdict(rate float64, latMs []float64, limitMs float64) rungVerdict {
	v := rungVerdict{Rate: rate, Batches: len(latMs)}
	if len(latMs) == 0 {
		return v
	}
	v.P, v.TailMs = tail(latMs, 99)
	v.Sustained = v.TailMs <= limitMs
	return v
}

// searchLadder finds the highest rung of a fixed rate ladder that a
// whole-trace pass sustains. base is the verdict on rungs[0], taken from
// the nominal pass; the rest are found by bisection with probe, which
// assumes a rung is sustained whenever a faster one is. It returns 0 when
// even the lowest rung fails.
func searchLadder(rungs []float64, base rungVerdict, probe func(rate float64) (rungVerdict, error)) (float64, []rungVerdict, error) {
	verdicts := []rungVerdict{base}
	if !base.Sustained {
		return 0, verdicts, nil
	}
	lo, hi := 0, len(rungs)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		v, err := probe(rungs[mid])
		if err != nil {
			return 0, verdicts, err
		}
		verdicts = append(verdicts, v)
		if v.Sustained {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rungs[lo], verdicts, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
