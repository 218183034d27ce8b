package stream

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/checkpoint"
)

// The background snapshot writer takes serialization and fsync off the
// ingest thread. The day clock captures state synchronously (cheap — a delta
// touches only what changed) and hands the capture here; JSON encoding, the
// staged write, the fsync, chain compaction, and generation GC all happen on
// this goroutine while ingest continues. At most one job is ever in flight:
// the day clock harvests the previous result before enqueueing the next
// capture, so commits overlap ingest, never each other, and the chain's
// parent fingerprints stay sequential.
//
// Compaction reads nothing back. The writer keeps a chainFold over the
// committed chain — seeded with the base the service started it from, and
// fed each capture once its write succeeds — so a compacted base is the
// fold marshalled, never the chain re-read and re-decoded from disk.

// snapJob is one captured snapshot handed to the background writer.
type snapJob struct {
	gen      uint64
	parentFP uint32
	base     bool // write a fresh full base (full mode) instead of a delta
	snap     *snapState
}

// snapResult reports one job's durable commit.
type snapResult struct {
	gen   uint64
	fp    uint32
	bytes int
	base  bool
	// compacted marks that the delta tripped a base compaction: the chain
	// was folded into a fresh base of compactBytes and superseded
	// generations collected.
	compacted    bool
	compactBytes int
	err          error
}

// snapWriter owns the writer goroutine and its single-slot channels.
type snapWriter struct {
	store     *checkpoint.Store
	baseEvery int
	keep      int

	jobs    chan snapJob
	results chan snapResult
	wg      sync.WaitGroup

	deltasSince int // deltas committed since the last base, writer-owned
	// fold is the committed chain folded up to its head, writer-owned.
	fold *chainFold
}

// newSnapWriter starts the writer over the chain whose fold is given: the
// fold must describe exactly the committed chain head new deltas link onto.
func newSnapWriter(store *checkpoint.Store, baseEvery, keep int, fold *chainFold) *snapWriter {
	w := &snapWriter{
		store:     store,
		baseEvery: baseEvery,
		keep:      keep,
		fold:      fold,
		jobs:      make(chan snapJob, 1),
		results:   make(chan snapResult, 1),
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for job := range w.jobs {
			w.results <- w.commit(job)
		}
	}()
	return w
}

// enqueue hands one capture to the writer. The caller must have harvested
// the previous result first; with the single-slot channel the send never
// blocks under that protocol.
func (w *snapWriter) enqueue(job snapJob) { w.jobs <- job }

// close stops the writer goroutine. The caller must have harvested or
// drained any in-flight result first.
func (w *snapWriter) close() {
	close(w.jobs)
	w.wg.Wait()
}

// commit serializes and durably writes one generation, compacting the chain
// into a fresh base every baseEvery deltas.
func (w *snapWriter) commit(job snapJob) snapResult {
	res := snapResult{gen: job.gen, base: job.base}
	payload, err := json.Marshal(job.snap)
	if err != nil {
		res.err = fmt.Errorf("stream: encoding snapshot: %w", err)
		return res
	}
	res.bytes = len(payload)
	if job.base {
		fp, err := w.store.WriteBase(job.gen, payload)
		if err != nil {
			res.err = err
			return res
		}
		res.fp = fp
		w.fold = newChainFold(job.snap)
		w.deltasSince = 0
		res.err = w.store.GC(w.keep)
		return res
	}
	fp, err := w.store.WriteDelta(job.gen, job.parentFP, payload)
	if err != nil {
		res.err = err
		return res
	}
	res.fp = fp
	if err := w.fold.add(job.snap); err != nil {
		res.err = err
		return res
	}
	w.deltasSince++
	if w.baseEvery > 0 && w.deltasSince >= w.baseEvery {
		res.err = w.compact(&res)
	}
	return res
}

// compact writes the fold — which already includes the delta just written
// — as a base carrying the head's generation and fingerprint, so later
// deltas chain onto either representation, then collects superseded
// generations. The fold needs no restart: it already is the compacted
// base, and later deltas keep folding over it. Failure is reported as a
// crash, never as corrupt state: the chain on disk stays intact.
func (w *snapWriter) compact(res *snapResult) error {
	payload, err := json.Marshal(w.fold.snapshot())
	if err != nil {
		return fmt.Errorf("stream: encoding compacted base: %w", err)
	}
	if err := w.store.WriteBaseLinked(res.gen, res.fp, payload); err != nil {
		return err
	}
	w.deltasSince = 0
	res.compacted = true
	res.compactBytes = len(payload)
	return w.store.GC(w.keep)
}
