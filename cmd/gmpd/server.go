// gmpd is simulation-as-a-service for the GMP simulator: an HTTP/JSON
// API that accepts seed-sweep jobs over named or inline scenarios, runs
// them on a bounded worker pool (internal/jobs), deduplicates work
// through a content-addressed result cache (internal/resultcache), and
// streams per-run telemetry summaries as JSONL while a sweep is still
// in flight.
//
//	POST   /v1/jobs                submit a sweep (scenario + run spec)
//	GET    /v1/jobs/{id}           job status and progress counters
//	GET    /v1/jobs/{id}/result    aggregated CI95 summary (done jobs)
//	GET    /v1/jobs/{id}/telemetry live JSONL stream (obs schema)
//	DELETE /v1/jobs/{id}           cancel (cooperative, like RunContext)
//	GET    /healthz                liveness
//	GET    /metrics                text counters (jobs + cache + topology builds)
//	GET    /debug/pprof/*          runtime profiles (only with -pprof)
//
// Caching is per run, not per sweep: each (scenario, run spec, seed)
// triple is hashed — SHA-256 over length-prefixed sections of a version
// salt, the scenario's canonical JSON, the normalized run spec, and the
// seed — and the condensed run record is stored under that key. A
// resubmitted sweep replays entirely from cache (zero simulations), and
// a sweep that extends an earlier one only runs the new seeds. Result
// JSON is built from the records through the same code path either
// way, so cached and live responses are byte-identical.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"gmp"
	"gmp/internal/jobs"
	"gmp/internal/obs"
	"gmp/internal/resultcache"
)

// resultVersion salts every cache key. Bump it when the simulator's
// outputs change meaning (it is why stale records from an older binary
// can never satisfy a new request).
const resultVersion = "gmpd-result-v1"

// maxSeeds bounds a single sweep so a typo cannot queue a year of work.
const maxSeeds = 4096

// jobRequest is the POST /v1/jobs body. Exactly one of ScenarioName
// (registry lookup) and Scenario (inline scenario JSON, the gmpsim file
// format) must be set.
type jobRequest struct {
	ScenarioName string          `json:"scenario_name,omitempty"`
	Scenario     json.RawMessage `json:"scenario,omitempty"`
	Protocol     string          `json:"protocol,omitempty"` // default "gmp"
	DurationS    float64         `json:"duration_s,omitempty"`
	WarmupS      float64         `json:"warmup_s,omitempty"`
	Seeds        int             `json:"seeds,omitempty"` // sweep size, default 1 (seeds 1..n)
	Workers      int             `json:"workers,omitempty"`
	DisableRTS   bool            `json:"disable_rts,omitempty"`
	LossProb     float64         `json:"loss_prob,omitempty"`
	// Spans records causal span traces for the sweep's first seed and
	// streams them on /v1/jobs/{id}/spans. SpanSample is the sampling
	// stride (0 = default). Neither field enters the cache key: spans
	// observe a run without changing its results, but requesting them
	// forces the first seed to simulate even on a cache hit, since the
	// cache stores condensed records without traces.
	Spans      bool `json:"spans,omitempty"`
	SpanSample int  `json:"span_sample,omitempty"`
}

// canonicalSpec is the normalized, defaults-applied run spec that
// enters the cache key. Field order is fixed by the struct, so its
// JSON is deterministic. Workers is deliberately absent: worker count
// never affects results.
type canonicalSpec struct {
	// Protocol is gmp.Protocol.Name, not the display name from String,
	// so "80211" and "dcf" address the same content as "802.11".
	Protocol   string  `json:"protocol"`
	DurationNS int64   `json:"duration_ns"`
	WarmupNS   int64   `json:"warmup_ns"`
	DisableRTS bool    `json:"disable_rts"`
	LossProb   float64 `json:"loss_prob"`
}

// runRecord is the condensed, cacheable outcome of one simulation run:
// exactly the fields the sweep aggregation (gmp.Summarize) and the
// telemetry stream need, a few hundred bytes instead of a full Result.
type runRecord struct {
	Seed            int64          `json:"seed"`
	Imm             float64        `json:"imm"`
	Ieq             float64        `json:"ieq"`
	U               float64        `json:"u"`
	ControlOverhead float64        `json:"control_overhead"`
	FlowRates       []float64      `json:"flow_rates"`
	FlowNormRates   []float64      `json:"flow_norm_rates"`
	Summary         obs.RunSummary `json:"summary"`
}

// skeleton rebuilds the minimal *gmp.Result that Summarize reads, so
// cached and freshly simulated runs aggregate through identical code.
func (r *runRecord) skeleton() *gmp.Result {
	res := &gmp.Result{
		Imm: r.Imm, Ieq: r.Ieq, U: r.U,
		ControlOverhead: r.ControlOverhead,
		Flows:           make([]gmp.FlowResult, len(r.FlowRates)),
	}
	for i := range res.Flows {
		res.Flows[i].Rate = r.FlowRates[i]
		res.Flows[i].NormRate = r.FlowNormRates[i]
	}
	return res
}

func recordFromResult(seed int64, res *gmp.Result) *runRecord {
	rec := &runRecord{
		Seed: seed,
		Imm:  res.Imm, Ieq: res.Ieq, U: res.U,
		ControlOverhead: res.ControlOverhead,
		FlowRates:       make([]float64, len(res.Flows)),
		FlowNormRates:   make([]float64, len(res.Flows)),
	}
	for i, f := range res.Flows {
		rec.FlowRates[i] = f.Rate
		rec.FlowNormRates[i] = f.NormRate
	}
	if res.Telemetry != nil {
		rec.Summary = res.Telemetry.Summarize()
	}
	return rec
}

// jobResult is the GET /v1/jobs/{id}/result body. It intentionally
// carries no job ID, timestamps, or cache counters: identical
// submissions must produce byte-identical result documents whether
// served from simulation or from cache. Per-job bookkeeping lives in
// the status endpoint.
type jobResult struct {
	Scenario string           `json:"scenario"`
	Protocol string           `json:"protocol"`
	Seeds    int              `json:"seeds"`
	Summary  gmp.SweepSummary `json:"summary"`
	Runs     []runMetrics     `json:"runs"`
}

// runMetrics is one run's row in the result document.
type runMetrics struct {
	Seed int64   `json:"seed"`
	Imm  float64 `json:"imm"`
	Ieq  float64 `json:"ieq"`
	U    float64 `json:"u"`
}

// jobState is the server-side record of one job, beyond what the queue
// tracks: cache keys, progress counters, the accumulated telemetry
// stream, and the final result document.
type jobState struct {
	id         string
	scenario   gmp.Scenario
	spec       canonicalSpec
	protocol   gmp.Protocol
	seeds      int
	workers    int
	spans      bool
	spanSample int
	keys       []resultcache.Key
	submitted  time.Time

	mu        sync.Mutex
	runsDone  int // runs accounted for (cache or simulation)
	simsRun   int // simulations actually executed
	cacheHits int
	result    []byte

	stream     bytes.Buffer // telemetry JSONL emitted so far
	streamDone bool
	// spanStream is the span JSONL from the first seed (spans jobs only);
	// it shares the changed channel so followers of either stream wake.
	spanStream bytes.Buffer
	spanDone   bool
	changed    chan struct{} // replaced (and closed) on every append
}

func (st *jobState) bumpLocked() {
	close(st.changed)
	st.changed = make(chan struct{})
}

// Write appends to the telemetry stream and wakes followers. It is the
// io.Writer under the job's obs.StreamWriter.
func (st *jobState) Write(p []byte) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.streamDone {
		return 0, errors.New("gmpd: telemetry stream already closed")
	}
	n, err := st.stream.Write(p)
	st.bumpLocked()
	return n, err
}

func (st *jobState) closeStream() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.streamDone {
		st.streamDone = true
		st.bumpLocked()
	}
}

// appendSpans adds span JSONL to the span stream and wakes followers.
func (st *jobState) appendSpans(p []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.spanDone {
		return
	}
	st.spanStream.Write(p)
	st.bumpLocked()
}

func (st *jobState) closeSpanStream() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.spanDone {
		st.spanDone = true
		st.bumpLocked()
	}
}

type server struct {
	queue  *jobs.Queue
	cache  *resultcache.Cache
	nextID atomic.Int64

	// Topology-build telemetry: every admission builds the scenario's
	// topology once (validation + timing), and /metrics exposes the
	// count, cumulative time, and last-build time so the spatial-grid
	// pipeline's cost is observable per deployment.
	topoBuilds      atomic.Int64
	topoBuildNS     atomic.Int64
	topoBuildLastNS atomic.Int64

	// Span-tracing telemetry: jobs that requested causal traces and the
	// span JSONL bytes recorded across all of them.
	spanJobs  atomic.Int64
	spanBytes atomic.Int64

	mu     sync.Mutex
	states map[string]*jobState
}

// newServer builds a gmpd server: a worker pool of the given size and
// a result cache bounded to cacheEntries in memory, persisted under
// cacheDir when non-empty.
func newServer(workers, cacheEntries int, cacheDir string) (*server, error) {
	cache, err := resultcache.New(cacheEntries, cacheDir)
	if err != nil {
		return nil, err
	}
	return &server{
		queue:  jobs.NewQueue(workers, 0),
		cache:  cache,
		states: make(map[string]*jobState),
	}, nil
}

// Shutdown drains the job queue: running sweeps finish, queued ones are
// cancelled with the typed shutdown reason, new submissions get 503.
func (s *server) Shutdown(ctx context.Context) error {
	return s.queue.Drain(ctx)
}

func (s *server) handler(enablePprof bool) http.Handler {
	mux := http.NewServeMux()
	if enablePprof {
		// The profiling routes are opt-in (-pprof): they expose stacks
		// and heap contents, which a metrics-only deployment should not.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleSpans)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// buildJob validates a request into a ready-to-run jobState (without an
// ID — the caller assigns one at submission).
func (s *server) buildJob(req *jobRequest) (*jobState, error) {
	var sc gmp.Scenario
	var err error
	switch {
	case req.ScenarioName != "" && len(req.Scenario) > 0:
		return nil, fmt.Errorf("scenario_name and scenario are mutually exclusive")
	case req.ScenarioName != "":
		if sc, err = gmp.NamedScenario(req.ScenarioName); err != nil {
			return nil, err
		}
	case len(req.Scenario) > 0:
		if sc, err = gmp.LoadScenario(bytes.NewReader(req.Scenario)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("one of scenario_name or scenario is required (names: %v)", gmp.ScenarioNames())
	}

	protoName := req.Protocol
	if protoName == "" {
		protoName = "gmp"
	}
	proto, err := gmp.ParseProtocol(protoName)
	if err != nil {
		return nil, err
	}
	if req.Seeds < 0 || req.Seeds > maxSeeds {
		return nil, fmt.Errorf("seeds %d out of range [0, %d]", req.Seeds, maxSeeds)
	}
	seeds := req.Seeds
	if seeds == 0 {
		seeds = 1
	}
	if req.DurationS < 0 || req.WarmupS < 0 {
		return nil, fmt.Errorf("invalid duration %gs / warmup %gs", req.DurationS, req.WarmupS)
	}
	duration := time.Duration(req.DurationS * float64(time.Second))
	if duration == 0 {
		duration = 400 * time.Second // gmp.Run's default session length
	}
	warmup := time.Duration(req.WarmupS * float64(time.Second))
	if warmup == 0 {
		warmup = duration / 2 // gmp.Run's default
	}
	if warmup >= duration {
		return nil, fmt.Errorf("warmup %v is not before duration %v", warmup, duration)
	}
	if req.LossProb < 0 || req.LossProb >= 1 {
		return nil, fmt.Errorf("loss_prob %g outside [0, 1)", req.LossProb)
	}

	spec := canonicalSpec{
		Protocol:   proto.Name(),
		DurationNS: int64(duration),
		WarmupNS:   int64(warmup),
		DisableRTS: req.DisableRTS,
		LossProb:   req.LossProb,
	}
	// Build the topology once at admission: scenarios that cannot build
	// are rejected before they enter the queue, and the timed build
	// feeds the gmpd_topology_build_* counters on /metrics.
	buildStart := time.Now()
	if _, err := sc.Topology(); err != nil {
		return nil, fmt.Errorf("scenario topology: %w", err)
	}
	buildNS := time.Since(buildStart).Nanoseconds()
	s.topoBuilds.Add(1)
	s.topoBuildNS.Add(buildNS)
	s.topoBuildLastNS.Store(buildNS)

	if req.SpanSample < 0 {
		return nil, fmt.Errorf("span_sample %d must be >= 0", req.SpanSample)
	}
	if req.SpanSample > 0 && !req.Spans {
		return nil, fmt.Errorf("span_sample requires spans")
	}
	st := &jobState{
		scenario:   sc,
		spec:       spec,
		protocol:   proto,
		seeds:      seeds,
		workers:    req.Workers,
		spans:      req.Spans,
		spanSample: req.SpanSample,
		changed:    make(chan struct{}),
	}
	st.keys, err = jobKeys(sc, spec, seeds)
	return st, err
}

// jobKeys derives the per-run content addresses: one key per seed over
// (version salt, canonical scenario, canonical spec, seed), with
// section framing supplied by resultcache.Sum.
func jobKeys(sc gmp.Scenario, spec canonicalSpec, seeds int) ([]resultcache.Key, error) {
	scBytes, err := sc.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("scenario does not canonicalize: %w", err)
	}
	specBytes, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	keys := make([]resultcache.Key, seeds)
	for i := range keys {
		var seed [8]byte
		binary.BigEndian.PutUint64(seed[:], uint64(i+1)) // SeedSweep seeds 1..n
		keys[i] = resultcache.Sum([]byte(resultVersion), scBytes, specBytes, seed[:])
	}
	return keys, nil
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req jobRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	st, err := s.buildJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st.id = fmt.Sprintf("job-%d", s.nextID.Add(1))
	st.submitted = time.Now()

	s.mu.Lock()
	s.states[st.id] = st
	s.mu.Unlock()

	if _, err := s.queue.Submit(st.id, func(ctx context.Context) error {
		return s.runJob(ctx, st)
	}); err != nil {
		s.mu.Lock()
		delete(s.states, st.id)
		s.mu.Unlock()
		code := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	if st.spans {
		s.spanJobs.Add(1)
	}
	s.writeStatus(w, http.StatusAccepted, st)
}

// runJob executes one sweep: satisfy what it can from the cache,
// simulate the missing seeds, stream per-run summaries in seed order
// as they become available, and store the aggregated result document.
func (s *server) runJob(ctx context.Context, st *jobState) error {
	defer st.closeStream()
	defer st.closeSpanStream()

	sw := obs.NewStreamWriter(st)
	if err := sw.WriteMeta(obs.Meta{
		Scenario:     st.scenario.Name,
		Protocol:     st.spec.Protocol,
		Flows:        len(st.scenario.Flows),
		Nodes:        len(st.scenario.Positions),
		BucketBounds: obs.DefaultLatencyBounds,
	}); err != nil {
		return err
	}

	records := make([]*runRecord, st.seeds)
	var missing []int
	hits := 0
	for i := range records {
		// A spans job must really simulate its first seed: cached records
		// are condensed results without the causal trace.
		if !(st.spans && i == 0) {
			if data, ok := s.cache.Get(st.keys[i]); ok {
				var rec runRecord
				if err := json.Unmarshal(data, &rec); err == nil {
					records[i] = &rec
					hits++
					continue
				}
				// A corrupt cache entry degrades to a miss.
			}
		}
		missing = append(missing, i)
	}
	st.mu.Lock()
	st.cacheHits = hits
	st.mu.Unlock()

	// Stream run records strictly in seed order: release emits every
	// contiguous completed prefix not yet written. relMu serializes it
	// against RunMany's completion-order callbacks.
	var relMu sync.Mutex
	next := 0
	release := func() error {
		for next < len(records) && records[next] != nil {
			if err := sw.WriteRun(records[next].Seed, records[next].Summary); err != nil {
				return err
			}
			st.mu.Lock()
			st.runsDone++
			st.mu.Unlock()
			next++
		}
		return nil
	}
	relMu.Lock()
	err := release()
	relMu.Unlock()
	if err != nil {
		return err
	}

	if len(missing) > 0 {
		base := gmp.Config{
			Scenario:   st.scenario,
			Protocol:   st.protocol,
			Duration:   time.Duration(st.spec.DurationNS),
			Warmup:     time.Duration(st.spec.WarmupNS),
			DisableRTS: st.spec.DisableRTS,
			LossProb:   st.spec.LossProb,
			Telemetry:  &gmp.TelemetryConfig{},
		}
		cfgs := make([]gmp.Config, len(missing))
		for j, idx := range missing {
			cfgs[j] = base
			cfgs[j].Seed = int64(idx + 1)
			if st.spans && idx == 0 {
				cfgs[j].Spans = &gmp.SpanConfig{SampleEvery: st.spanSample}
			}
		}
		_, err := gmp.RunMany(ctx, cfgs, gmp.RunManyOptions{
			Workers: st.workers,
			OnResult: func(j int, res *gmp.Result) {
				idx := missing[j]
				if res.Spans != nil {
					var sb bytes.Buffer
					if werr := res.Spans.WriteJSONL(&sb); werr == nil {
						st.appendSpans(sb.Bytes())
						s.spanBytes.Add(int64(sb.Len()))
					}
					st.closeSpanStream()
				}
				rec := recordFromResult(int64(idx+1), res)
				if data, merr := json.Marshal(rec); merr == nil {
					s.cache.Put(st.keys[idx], data)
				}
				st.mu.Lock()
				st.simsRun++
				st.mu.Unlock()
				relMu.Lock()
				records[idx] = rec
				release()
				relMu.Unlock()
			},
		})
		if err != nil {
			return err
		}
	}

	// Aggregate through the same path for cached and simulated runs.
	doc := jobResult{
		Scenario: st.scenario.Name,
		Protocol: st.spec.Protocol,
		Seeds:    st.seeds,
	}
	skeletons := make([]*gmp.Result, len(records))
	for i, rec := range records {
		skeletons[i] = rec.skeleton()
		doc.Runs = append(doc.Runs, runMetrics{Seed: rec.Seed, Imm: rec.Imm, Ieq: rec.Ieq, U: rec.U})
	}
	doc.Summary = gmp.Summarize(skeletons)
	out, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	st.mu.Lock()
	st.result = out
	st.mu.Unlock()
	return nil
}

// statusResponse is the job status document.
type statusResponse struct {
	ID           string `json:"id"`
	Status       string `json:"status"`
	Scenario     string `json:"scenario"`
	Protocol     string `json:"protocol"`
	Seeds        int    `json:"seeds"`
	RunsDone     int    `json:"runs_done"`
	SimsExecuted int    `json:"sims_executed"`
	CacheHits    int    `json:"cache_hits"`
	Error        string `json:"error,omitempty"`
	CancelReason string `json:"cancel_reason,omitempty"`
}

func (s *server) lookup(r *http.Request) (*jobState, *jobs.Job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.states[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	j, ok := s.queue.Get(id)
	if !ok {
		return nil, nil, false
	}
	return st, j, true
}

func (s *server) status(st *jobState) statusResponse {
	resp := statusResponse{
		ID:       st.id,
		Scenario: st.scenario.Name,
		Protocol: st.spec.Protocol,
		Seeds:    st.seeds,
	}
	if j, ok := s.queue.Get(st.id); ok {
		resp.Status = j.Status().String()
		if err := j.Err(); err != nil {
			resp.Error = err.Error()
		}
		resp.CancelReason = string(j.Reason())
	}
	st.mu.Lock()
	resp.RunsDone = st.runsDone
	resp.SimsExecuted = st.simsRun
	resp.CacheHits = st.cacheHits
	st.mu.Unlock()
	return resp
}

func (s *server) writeStatus(w http.ResponseWriter, code int, st *jobState) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(s.status(st))
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, _, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.writeStatus(w, http.StatusOK, st)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	st, j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	switch j.Status() {
	case jobs.Done:
		st.mu.Lock()
		out := st.result
		st.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	case jobs.Failed:
		httpError(w, http.StatusInternalServerError, "job failed: %v", j.Err())
	case jobs.Cancelled:
		httpError(w, http.StatusConflict, "job cancelled (%s)", j.Reason())
	default:
		httpError(w, http.StatusConflict, "job is %s; poll status until done", j.Status())
	}
}

// handleTelemetry streams the job's telemetry JSONL, following a
// running job until it reaches a terminal state (tail -f semantics).
// Every flushed prefix ends on a record boundary and validates under
// the obs schema.
func (s *server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	st, _, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	offset := 0
	for {
		st.mu.Lock()
		buf := st.stream.Bytes()
		done := st.streamDone
		ch := st.changed
		st.mu.Unlock()
		if offset < len(buf) {
			if _, err := w.Write(buf[offset:]); err != nil {
				return
			}
			offset = len(buf)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if done {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// handleSpans streams the job's span JSONL (the first seed's causal
// trace), following a running job until the trace is complete — the
// same tail-f semantics as the telemetry stream. The body validates
// under the span schema once complete.
func (s *server) handleSpans(w http.ResponseWriter, r *http.Request) {
	st, _, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !st.spans {
		httpError(w, http.StatusNotFound, "job %s did not request spans (submit with \"spans\": true)", st.id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	offset := 0
	for {
		st.mu.Lock()
		buf := st.spanStream.Bytes()
		done := st.spanDone
		ch := st.changed
		st.mu.Unlock()
		if offset < len(buf) {
			if _, err := w.Write(buf[offset:]); err != nil {
				return
			}
			offset = len(buf)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if done {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !s.queue.Cancel(st.id, jobs.ReasonRequested) {
		httpError(w, http.StatusConflict, "job already %s", j.Status())
		return
	}
	s.writeStatus(w, http.StatusAccepted, st)
}

// metricFamily is one /metrics family in the Prometheus text exposition
// format: a HELP line, a TYPE line (counter or gauge), and one sample.
type metricFamily struct {
	name  string
	help  string
	typ   string // "counter" | "gauge"
	value int64
}

// metricFamilies snapshots every exported metric. Monotonic totals are
// counters; instantaneous levels (queue depth, running jobs, resident
// cache entries, last build time) are gauges.
func (s *server) metricFamilies() []metricFamily {
	js := s.queue.Stats()
	cs := s.cache.Stats()
	return []metricFamily{
		{"gmpd_jobs_submitted", "Sweep jobs accepted since process start.", "counter", js.Submitted},
		{"gmpd_jobs_done", "Jobs that completed successfully.", "counter", js.Done},
		{"gmpd_jobs_failed", "Jobs that ended in an error.", "counter", js.Failed},
		{"gmpd_jobs_cancelled", "Jobs cancelled before completion.", "counter", js.Cancelled},
		{"gmpd_jobs_queued", "Jobs waiting for a worker right now.", "gauge", int64(js.Depth)},
		{"gmpd_jobs_running", "Jobs executing right now.", "gauge", int64(js.Running)},
		{"gmpd_cache_hits", "Result-cache memory hits.", "counter", cs.Hits},
		{"gmpd_cache_misses", "Result-cache misses.", "counter", cs.Misses},
		{"gmpd_cache_disk_hits", "Result-cache hits served from the disk tier.", "counter", cs.DiskHits},
		{"gmpd_cache_puts", "Result-cache insertions.", "counter", cs.Puts},
		{"gmpd_cache_evictions", "Result-cache entries evicted by the memory bound.", "counter", cs.Evictions},
		{"gmpd_cache_entries", "Result-cache entries resident in memory.", "gauge", int64(cs.Entries)},
		{"gmpd_topology_builds", "Scenario topology builds performed at job admission.", "counter", s.topoBuilds.Load()},
		{"gmpd_topology_build_ns_total", "Cumulative topology build time in nanoseconds.", "counter", s.topoBuildNS.Load()},
		{"gmpd_topology_build_ns_last", "Duration of the most recent topology build in nanoseconds.", "gauge", s.topoBuildLastNS.Load()},
		{"gmpd_span_jobs", "Jobs that requested causal span tracing.", "counter", s.spanJobs.Load()},
		{"gmpd_span_bytes_recorded", "Span JSONL bytes recorded across all jobs.", "counter", s.spanBytes.Load()},
	}
}

// handleMetrics serves the Prometheus text exposition format (text/plain
// version 0.0.4): every family carries # HELP and # TYPE annotations so
// a scrape ingests without relabeling.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, m := range s.metricFamilies() {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		fmt.Fprintf(w, "%s %d\n", m.name, m.value)
	}
}
