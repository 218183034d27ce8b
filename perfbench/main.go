// Command perfbench is the repository's end-to-end benchmark. It drives
// the measurement service only through public seams — HTTP to an
// in-process serve.Server on loopback, workload.ExecuteStream and
// ExecuteSource, the FaultHook and DurableFS hooks — checks every pass's
// output against a batch reference, and prints one JSON line of metrics.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics from untraced passes;
// with --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics of the traced ones plus the tracing overhead. Spans
// and scratch checkpoint directories go under .bench_build/perfbench.
// WORKLOADS.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// outDir, relative to the working directory (the repository root), holds
// span files and each run's scratch checkpoint directories.
var outDir = filepath.Join(".bench_build", "perfbench")

type options struct {
	w       workloadDef
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string
	log     io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see WORKLOADS.md)")
	seed := fs.Uint64("seed", 1, "seed for the generated trace and the run's noise")
	seconds := fs.Float64("seconds", 10, "measurement time budget; every pass kind runs at least once")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	o := options{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: outDir, log: stderr}
	rep, err := measure(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		failed := report{Correct: false, Metrics: map[string]metric{}}
		if rep != nil {
			failed.Attempted, failed.Failed = rep.Attempted, rep.Failed
		}
		failed.Attempted = max(failed.Attempted, 1)
		emit(stdout, failed)
		return 1
	}
	emit(stdout, *rep)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func emit(w io.Writer, r report) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // measure rejects non-finite metrics, so a report always encodes
	}
	fmt.Fprintln(w, string(b))
}

// inputs is one set-up: the generated trace, its batch reference, and the
// request plans.
type inputs struct {
	ds        *dataset.Dataset
	digest    string
	perQuery  map[string]int // reference results per querier
	results   int
	plan      *plan // serve: nproc senders, encoded; replay: one feed
	setupTime time.Duration
}

func setup(ctx context.Context, o options) (*inputs, error) {
	start := time.Now()
	ds, err := o.w.trace(o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	// The batch engine is the specification; it has no durability.
	cfg := o.w.scenario(o.seed)
	cfg.Dataset = ds
	cfg.SnapshotEveryDays, cfg.GroupCommitEvents = 0, 0
	ref, err := workload.Execute(cfg)
	if err != nil {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	in := &inputs{ds: ds, digest: ref.CanonicalDigest(), perQuery: map[string]int{},
		results: len(ref.Results)}
	for _, r := range ref.Results {
		in.perQuery[string(r.Querier)]++
	}
	senders := 1
	if o.w.serve {
		senders = min(2, runtime.NumCPU())
	}
	in.plan, err = newPlan(ds, senders, o.w.size(o.seed), o.w.serve)
	if err != nil {
		return nil, err
	}
	if o.w.serve {
		if err := bootOnly(ctx, o, ds); err != nil {
			return nil, err
		}
	}
	in.setupTime = time.Since(start)
	return in, nil
}

// bootOnly boots a server, registers the queriers over HTTP, and shuts it
// down before any event arrives: the server-boot share of set-up.
func bootOnly(ctx context.Context, o options, ds *dataset.Dataset) error {
	dir, err := os.MkdirTemp(o.out, "boot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := o.w.scenario(o.seed)
	cfg.CheckpointDir = dir
	srv, err := serve.NewServer(serve.Config{Scenario: cfg, Meta: metaOf(ds)})
	if err != nil {
		return err
	}
	defer srv.Shutdown(ctx, true)
	base, stop, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer stop()
	c := newClient()
	defer c.CloseIdleConnections()
	return register(ctx, c, base, ds.Advertisers)
}

// metaOf is the trace identity a server is booted with; queriers register
// over HTTP.
func metaOf(ds *dataset.Dataset) dataset.Meta {
	return dataset.Meta{Name: ds.Name, PopulationDevices: ds.PopulationDevices, DurationDays: ds.DurationDays}
}

// heapSampler tracks the highest live heap (as of the latest GC) while
// it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, sample[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
