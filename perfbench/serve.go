package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// requestHeader carries the client span's id to the handler span. The
// server ignores headers it does not know.
const requestHeader = "X-Perfbench-Span"

// Retry discipline for refused attempts: verbatim redelivery (the
// server's per-device dedupe makes it idempotent) with capped doubling
// backoff, and a give-up after maxAttempts.
const (
	maxAttempts = 200
	baseBackoff = 2 * time.Millisecond
	maxBackoff  = 100 * time.Millisecond
	// pollEvery is the querier poller's cadence while ingest runs.
	pollEvery = 20 * time.Millisecond
)

// serveResult is one pass over an in-process server.
type serveResult struct {
	wall      time.Duration // first due instant → complete result
	latMs     []float64     // per batch in plan order: due → 200
	sendLagMs []float64     // per batch: sendable → on the wire
	pollMs    []float64     // GET /v1/results round trips during ingest
	attempts  int
	refused   int // non-200 attempts and transport errors
	giveUps   int
	accepted  int
	dupes     int
	results   []serve.ResultWire
	// ingested, dropped and durability are read off the finished run; the
	// run itself is not kept, so one pass's state is garbage before the
	// next pass starts.
	ingested, dropped int
	durability        stream.DurabilityStats
	stats             serve.Stats
	fs                *timingFS
}

// serveOpts configures one pass.
type serveOpts struct {
	scenario workload.Config  // Dataset nil; CheckpointDir set per pass
	ds       *dataset.Dataset // trace identity and querier registrations
	plan     *plan
	sched    schedule
	workDir  string
	tracer   *tracer // nil: untraced
}

// servePass boots a fresh server on loopback, registers the queriers,
// drives the plan on the schedule, finalizes the run and tears everything
// down. Each pass gets its own checkpoint directory, so passes never
// share durable state.
func servePass(ctx context.Context, o serveOpts) (*serveResult, error) {
	dir, err := os.MkdirTemp(o.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &serveResult{latMs: make([]float64, len(o.plan.batches)),
		sendLagMs: make([]float64, len(o.plan.batches))}

	cfg := o.scenario
	cfg.CheckpointDir = dir
	if o.tracer != nil {
		res.fs = newTimingFS(checkpoint.OsFS{}, o.tracer)
		cfg.DurableFS = res.fs
		cfg.FaultHook = (&faultSpans{t: o.tracer}).hook
	}
	srv, err := serve.NewServer(serve.Config{Scenario: cfg, Meta: metaOf(o.ds)})
	if err != nil {
		return nil, err
	}
	base, stop, err := listen(wrapHandler(srv.Handler(), o.tracer))
	if err != nil {
		return nil, err
	}
	defer stop()
	// The server must finish on every path, or its service goroutine
	// outlives the pass.
	finished := false
	defer func() {
		if !finished {
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			srv.Shutdown(sctx, true)
			cancel()
		}
	}()

	clients := make([]*http.Client, o.plan.senders)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	if err := register(ctx, clients[0], base, o.ds.Advertisers); err != nil {
		return nil, err
	}

	pollClient := newClient()
	defer pollClient.CloseIdleConnections()
	pollCtx, stopPoll := context.WithCancel(ctx)
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		res.pollMs = poll(pollCtx, pollClient, base, o.tracer)
	}()

	sendCtx, cancelSend := context.WithCancel(ctx)
	defer cancelSend()
	start := time.Now()
	var mu sync.Mutex // guards res counters written by senders
	var firstErr error
	barriers := make([]sync.WaitGroup, len(o.plan.days))
	for i := range barriers {
		barriers[i].Add(o.plan.senders)
	}
	var wg sync.WaitGroup
	for s := 0; s < o.plan.senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			d := &sender{client: clients[s], base: base, t: o.tracer}
			err := d.run(sendCtx, o.plan, o.sched, s, start, barriers, res, &mu)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancelSend()
			}
		}(s)
	}
	wg.Wait()
	stopPoll()
	pollWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	sctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	run, err := srv.Shutdown(sctx, true)
	cancel()
	finished = true
	res.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("finalizing run: %w", err)
	}
	res.ingested, res.dropped, res.durability = run.EventsIngested, run.EventsDropped, run.Durability
	res.stats = srv.StatsSnapshot()
	all, err := fetchResults(ctx, pollClient, base, -1, 0)
	if err != nil {
		return nil, err
	}
	if !all.Complete {
		return nil, errors.New("results not complete after the final shutdown")
	}
	res.results = all.Results
	return res, nil
}

// listen serves h on a loopback port. stop closes the listener and every
// connection and returns once the serve loop has exited.
func listen(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		<-served
	}, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// wrapHandler times /v1/events and /v1/results inside the server. The
// span's parent is the client span named by requestHeader.
func wrapHandler(h http.Handler, t *tracer) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch r.URL.Path {
		case "/v1/events":
			name = spanServeEvents
		case "/v1/results":
			name = spanServeResults
		default:
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(0, parent, name, start, time.Now())
	})
}

// register posts the trace's queriers in trace order, so the server's
// canonical querier order matches the reference run's.
func register(ctx context.Context, c *http.Client, base string, advs []dataset.Advertiser) error {
	for _, a := range advs {
		body, err := json.Marshal(serve.RegistrationFromAdvertiser(a))
		if err != nil {
			return err
		}
		status, resp, err := post(ctx, c, base+"/v1/queries", body, 0)
		if err != nil {
			return fmt.Errorf("registering %s: %w", a.Site, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("registering %s: status %d: %s", a.Site, status, resp)
		}
	}
	return nil
}

func post(ctx context.Context, c *http.Client, url string, body []byte, spanID uint64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(requestHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// fetchResults asks for the results released after index after. spanID,
// when non-zero, is sent for the handler span to name as its parent.
func fetchResults(ctx context.Context, c *http.Client, base string, after int, spanID uint64) (*serve.ResultsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/results?after="+strconv.Itoa(after), nil)
	if err != nil {
		return nil, err
	}
	if spanID != 0 {
		req.Header.Set(requestHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out serve.ResultsResponse
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/results: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET /v1/results: %w", err)
	}
	return &out, nil
}

// poll is the querier: it asks for new results every pollEvery until ctx
// ends, and returns each round trip's latency in milliseconds. A failed
// poll (the pass ending mid-request) is skipped, not sampled.
func poll(ctx context.Context, c *http.Client, base string, t *tracer) []float64 {
	var lat []float64
	after := -1
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return lat
		case <-tick.C:
		}
		id := t.newID()
		start := time.Now()
		out, err := fetchResults(ctx, c, base, after, id)
		end := time.Now()
		if err != nil {
			continue
		}
		lat = append(lat, ms(end.Sub(start)))
		t.record(id, 0, spanClientResults, start, end)
		for _, r := range out.Results {
			after = max(after, r.Index)
		}
	}
}

// sender is one connection's worth of load: it owns the devices pinned to
// it and sends their batches in plan order.
type sender struct {
	client *http.Client
	base   string
	t      *tracer
}

// run sends sender s's batches, each no earlier than its due instant, and
// waits at every day barrier. Latency runs from the due instant to the
// 200, so time a batch spent waiting for this connection, for the
// barrier, or for retries is all charged to it. Send lag is the
// generator's own lateness: from the instant the batch was both due and
// sendable (connection free, barrier passed) to the instant it went out.
func (d *sender) run(ctx context.Context, p *plan, sc schedule, s int, start time.Time,
	barriers []sync.WaitGroup, res *serveResult, mu *sync.Mutex) (err error) {
	pos := 0
	ready := start
	di := 0
	defer func() {
		// A failed sender still passes every remaining barrier, so the
		// others run into the cancelled context instead of waiting forever.
		if err != nil {
			for ; di < len(p.days); di++ {
				barriers[di].Done()
			}
		}
	}()
	for ; di < len(p.days); di++ {
		for ; pos < p.dayEnd[s][di]; pos++ {
			i := p.bySender[s][pos]
			b := p.batches[i]
			due := start.Add(sc.due[i])
			if wait := time.Until(due); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return ctx.Err()
				}
			}
			eligible := due
			if ready.After(eligible) {
				eligible = ready
			}
			sent := time.Now()
			acc, dup, attempts, serr := d.send(ctx, b.body)
			done := time.Now()
			ready = done
			mu.Lock()
			res.attempts += attempts
			res.refused += attempts - 1
			if serr != nil {
				res.refused++
				res.giveUps++
				mu.Unlock()
				return serr
			}
			res.accepted += acc
			res.dupes += dup
			res.latMs[i] = ms(done.Sub(due))
			res.sendLagMs[i] = ms(sent.Sub(eligible))
			mu.Unlock()
		}
		barriers[di].Done()
		barriers[di].Wait()
		if now := time.Now(); now.After(ready) {
			ready = now
		}
	}
	return nil
}

// send delivers one batch, retrying verbatim until a 200 or maxAttempts.
func (d *sender) send(ctx context.Context, body []byte) (accepted, dupes, attempts int, err error) {
	backoff := baseBackoff
	for attempts = 1; ; attempts++ {
		id := d.t.newID()
		start := time.Now()
		status, resp, perr := post(ctx, d.client, d.base+"/v1/events", body, id)
		d.t.record(id, 0, spanClientEvents, start, time.Now())
		if perr == nil && status == http.StatusOK {
			var ir serve.IngestResponse
			if err := json.Unmarshal(resp, &ir); err != nil {
				return 0, 0, attempts, fmt.Errorf("parsing ingest response: %w", err)
			}
			return ir.Accepted, ir.Duplicates, attempts, nil
		}
		if ctx.Err() != nil {
			return 0, 0, attempts, ctx.Err()
		}
		if perr == nil && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			return 0, 0, attempts, fmt.Errorf("POST /v1/events: status %d: %s", status, resp)
		}
		if attempts >= maxAttempts {
			return 0, 0, attempts, fmt.Errorf("POST /v1/events: gave up after %d attempts (last status %d, err %v)",
				attempts, status, perr)
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return 0, 0, attempts, ctx.Err()
		}
		backoff = min(2*backoff, maxBackoff)
	}
}
