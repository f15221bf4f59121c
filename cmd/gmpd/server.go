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
//	GET    /v1/jobs/{id}/spans     first seed's span JSONL (spans jobs only)
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
//
// A request is checked by gmp.Config.Validate, the check gmp.Run makes,
// so a job that is accepted fails only where the built topology refuses
// it. Status, result and telemetry meta name the scenario as submitted:
// the registry name, or an inline scenario's own name. The server
// remembers every queued and running job and the newest 128 finished
// ones; an older job's ID answers 404.
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"gmp"
	"gmp/internal/jobs"
	"gmp/internal/obs"
	"gmp/internal/resultcache"
	"gmp/internal/routing"
)

// resultVersion salts every cache key. Bump it when the simulator's
// outputs change meaning (it is why stale records from an older binary
// can never satisfy a new request).
const resultVersion = "gmpd-result-v1"

// maxSeeds bounds a single sweep so a typo cannot queue a year of work.
const maxSeeds = 4096

// maxBodyBytes bounds a POST /v1/jobs body; a larger one gets 413. An
// inline 10,000-node city scenario is 0.63 MB as Scenario.Save writes it.
const maxBodyBytes = 8 << 20

// maxErrorBytes bounds an error body's message. A request field echoed
// into it (an 8 MiB protocol name, say) is cut, so a rejected request
// never costs a response as large as itself.
const maxErrorBytes = 512

// maxFinishedJobs bounds the finished jobs (done, failed or cancelled)
// the server remembers, each with its telemetry log and, for a spans
// job, the first seed's span log (560 KB for a 60 s fig3 run). Each
// submission forgets the oldest finished jobs beyond it; a forgotten ID
// answers 404 like an unknown one. Queued and running jobs are never
// forgotten.
const maxFinishedJobs = 128

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

// jobState is the server-side record of one job: the queue's handle,
// the resolved run config, cache keys, progress counters, the two
// streams, and the final result document.
type jobState struct {
	id      string
	job     *jobs.Job
	label   string     // the scenario as submitted: registry name or Scenario.Name
	cfg     gmp.Config // resolved by WithDefaults; runJob copies it per seed
	spec    canonicalSpec
	seeds   int
	workers int
	spans   *gmp.SpanConfig // traces the first seed; nil when not requested
	keys    []resultcache.Key

	mu        sync.Mutex
	runsDone  int // runs accounted for (cache or simulation)
	simsRun   int // simulations actually executed
	cacheHits int
	result    []byte

	telemetry tail // run summaries as obs JSONL, closed when the job ends
	spanLog   tail // the first seed's span JSONL, closed once it is written
}

// tail is an append-only stream that readers follow while it grows
// (tail -f). Its zero value is an open, empty stream.
type tail struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	done    bool
	changed chan struct{} // closed on the next Write or Close
}

// Write appends p and wakes followers.
func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return 0, errors.New("gmpd: stream already closed")
	}
	n, err := t.buf.Write(p)
	t.wakeLocked()
	return n, err
}

// Close ends the stream; followers return once they have sent it all.
func (t *tail) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = true
	t.wakeLocked()
}

func (t *tail) wakeLocked() {
	if t.changed != nil {
		close(t.changed)
		t.changed = nil
	}
}

// follow sends the stream to w as JSONL, flushing as it grows, until
// the stream is closed or the client goes away. The stream only ever
// grows, so the bytes before its length are safe to send unlocked.
func (t *tail) follow(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for offset := 0; ; {
		t.mu.Lock()
		buf, done := t.buf.Bytes(), t.done
		if t.changed == nil {
			t.changed = make(chan struct{})
		}
		ch := t.changed
		t.mu.Unlock()
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
	order  []*jobState // states in submission order
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
	msg := fmt.Sprintf(format, args...)
	if len(msg) > maxErrorBytes {
		cut := maxErrorBytes
		for cut > 0 && !utf8.RuneStart(msg[cut]) {
			cut--
		}
		msg = msg[:cut] + "…"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// buildJob validates a request into a ready-to-run jobState (without an
// ID or a job handle; the caller adds both at submission).
func (s *server) buildJob(req *jobRequest) (*jobState, error) {
	var sc gmp.Scenario
	var err error
	label := req.ScenarioName
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
		label = sc.Name
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
	if req.SpanSample < 0 {
		return nil, fmt.Errorf("span_sample %d must be >= 0", req.SpanSample)
	}
	if req.SpanSample > 0 && !req.Spans {
		return nil, fmt.Errorf("span_sample requires spans")
	}
	cfg := gmp.Config{
		Scenario:   sc,
		Protocol:   proto,
		Duration:   time.Duration(req.DurationS * float64(time.Second)),
		Warmup:     time.Duration(req.WarmupS * float64(time.Second)),
		DisableRTS: req.DisableRTS,
		LossProb:   req.LossProb,
		Telemetry:  &gmp.TelemetryConfig{},
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Build the topology once at admission: scenarios that cannot build
	// are rejected before they enter the queue, and the timed build
	// feeds the gmpd_topology_build_* counters on /metrics.
	buildStart := time.Now()
	topo, err := sc.Topology()
	if err != nil {
		return nil, fmt.Errorf("scenario topology: %w", err)
	}
	buildNS := time.Since(buildStart).Nanoseconds()
	s.topoBuilds.Add(1)
	s.topoBuildNS.Add(buildNS)
	s.topoBuildLastNS.Store(buildNS)
	// A flow without a route at t=0 fails every run: refuse it here.
	routes := routing.BuildLazy(topo)
	for _, f := range sc.Flows {
		if routes.HopCount(f.Src, f.Dst) <= 0 {
			return nil, fmt.Errorf("flow %d has no route from %d to %d", f.ID, f.Src, f.Dst)
		}
	}

	st := &jobState{
		label: label,
		cfg:   cfg,
		spec: canonicalSpec{
			Protocol:   proto.Name(),
			DurationNS: int64(cfg.Duration),
			WarmupNS:   int64(cfg.Warmup),
			DisableRTS: cfg.DisableRTS,
			LossProb:   cfg.LossProb,
		},
		seeds:   seeds,
		workers: req.Workers,
	}
	if req.Spans {
		st.spans = &gmp.SpanConfig{SampleEvery: req.SpanSample}
	}
	st.keys, err = jobKeys(sc, st.spec, seeds)
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req jobRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	st, err := s.buildJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st.id = fmt.Sprintf("job-%d", s.nextID.Add(1))
	if st.job, err = s.queue.Submit(func(ctx context.Context) error {
		return s.runJob(ctx, st)
	}); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	s.mu.Lock()
	s.states[st.id] = st
	s.order = append(s.order, st)
	s.forgetFinishedLocked()
	s.mu.Unlock()
	if st.spans != nil {
		s.spanJobs.Add(1)
	}
	writeStatus(w, http.StatusAccepted, st)
}

// forgetFinishedLocked drops the oldest finished jobs beyond
// maxFinishedJobs. The caller holds s.mu.
func (s *server) forgetFinishedLocked() {
	finished := 0
	for i := len(s.order) - 1; i >= 0; i-- {
		if st := s.order[i]; st.job.Status().Terminal() {
			if finished++; finished > maxFinishedJobs {
				delete(s.states, st.id)
				s.order[i] = nil
			}
		}
	}
	if finished > maxFinishedJobs {
		s.order = slices.DeleteFunc(s.order, func(st *jobState) bool { return st == nil })
	}
}

// runJob executes one sweep: satisfy what it can from the cache,
// simulate the missing seeds, stream per-run summaries in seed order
// as they become available, and store the aggregated result document.
func (s *server) runJob(ctx context.Context, st *jobState) error {
	defer st.telemetry.Close()
	defer st.spanLog.Close()

	sw := obs.NewStreamWriter(&st.telemetry)
	if err := sw.WriteMeta(obs.Meta{
		Scenario:     st.label,
		Protocol:     st.spec.Protocol,
		Flows:        len(st.cfg.Scenario.Flows),
		Nodes:        len(st.cfg.Scenario.Positions),
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
		if !(st.spans != nil && i == 0) {
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
		cfgs := make([]gmp.Config, len(missing))
		for j, idx := range missing {
			cfgs[j] = st.cfg
			cfgs[j].Seed = int64(idx + 1)
			if idx == 0 {
				cfgs[j].Spans = st.spans
			}
		}
		_, err := gmp.RunMany(ctx, cfgs, gmp.RunManyOptions{
			Workers: st.workers,
			OnResult: func(j int, res *gmp.Result) {
				idx := missing[j]
				if res.Spans != nil {
					var sb bytes.Buffer
					if werr := res.Spans.WriteJSONL(&sb); werr == nil {
						st.spanLog.Write(sb.Bytes())
						s.spanBytes.Add(int64(sb.Len()))
					}
					st.spanLog.Close()
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
		Scenario: st.label,
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

// job resolves the {id} in the path, answering 404 itself when there
// is no such job.
func (s *server) job(w http.ResponseWriter, r *http.Request) *jobState {
	id := r.PathValue("id")
	s.mu.Lock()
	st := s.states[id]
	s.mu.Unlock()
	if st == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return st
}

func (st *jobState) status() statusResponse {
	resp := statusResponse{
		ID:           st.id,
		Status:       st.job.Status().String(),
		Scenario:     st.label,
		Protocol:     st.spec.Protocol,
		Seeds:        st.seeds,
		CancelReason: string(st.job.Reason()),
	}
	if err := st.job.Err(); err != nil {
		resp.Error = err.Error()
	}
	st.mu.Lock()
	resp.RunsDone = st.runsDone
	resp.SimsExecuted = st.simsRun
	resp.CacheHits = st.cacheHits
	st.mu.Unlock()
	return resp
}

func writeStatus(w http.ResponseWriter, code int, st *jobState) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(st.status())
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if st := s.job(w, r); st != nil {
		writeStatus(w, http.StatusOK, st)
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	st := s.job(w, r)
	if st == nil {
		return
	}
	switch j := st.job; j.Status() {
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
// running job until it reaches a terminal state. Every flushed prefix
// ends on a record boundary and validates under the obs schema.
func (s *server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if st := s.job(w, r); st != nil {
		st.telemetry.follow(w, r)
	}
}

// handleSpans streams the job's span JSONL (the first seed's causal
// trace), following a running job until the trace is complete. The
// body validates under the span schema once complete.
func (s *server) handleSpans(w http.ResponseWriter, r *http.Request) {
	st := s.job(w, r)
	if st == nil {
		return
	}
	if st.spans == nil {
		httpError(w, http.StatusNotFound, "job %s did not request spans (submit with \"spans\": true)", st.id)
		return
	}
	st.spanLog.follow(w, r)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st := s.job(w, r)
	if st == nil {
		return
	}
	if !st.job.Cancel(jobs.ReasonRequested) {
		httpError(w, http.StatusConflict, "job already %s", st.job.Status())
		return
	}
	writeStatus(w, http.StatusAccepted, st)
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
		{"gmpd_cache_corrupt", "Result-cache disk entries that failed their checksum and were removed.", "counter", cs.Corrupt},
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
