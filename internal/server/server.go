package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/judge"
	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/trace"
)

// Defaults for the zero values of Config's knobs.
const (
	DefaultBatchMaxSize  = 16
	DefaultBatchMaxDelay = 2 * time.Millisecond
	DefaultQueueLimit    = 1024
	DefaultRetryAfter    = 50 * time.Millisecond
)

// dedupPhase is the Experiment field of store records written by the
// server: completion-cache records live in their own phase namespace
// so they can never collide with an experiment's sealed verdicts.
const dedupPhase = "serve/completions"

// errShuttingDown answers requests caught mid-shutdown, mapped to 503
// on every path so clean shutdowns never read as internal errors.
var errShuttingDown = errors.New("server shutting down")

// errorStatus classifies a resolution error: shutdown is 503, anything
// else is a true 500 (Protocol maps the requester's own context to 504).
func errorStatus(err error) int {
	if errors.Is(err, errShuttingDown) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// Config configures a Server. LLM is the only required field.
type Config struct {
	// LLM is the fronted endpoint. Implementing judge.BatchLLM opts it
	// into coalesced shards; judge.ContextLLM into per-prompt
	// cancellation on the fallback path.
	LLM judge.LLM
	// Backend and Seed identify what LLM was constructed from; they
	// are reported by /v1/backends and key the dedup store records.
	Backend string
	Seed    uint64
	// ReplicaID is this instance's stable name in /healthz,
	// /v1/backends, and the /metrics replica label — how router logs
	// and failover tests tell fleet members apart. llm4vvd defaults it
	// to the listen address.
	ReplicaID string
	// Registered is the backend-registry listing reported by
	// /v1/backends (the server does not import the registry itself).
	Registered []string

	// BatchMaxSize caps how many concurrent /v1/complete requests one
	// micro-batch may coalesce. Default DefaultBatchMaxSize.
	BatchMaxSize int
	// BatchMaxDelay is how long a forming micro-batch waits for
	// stragglers after its first prompt arrives. Default
	// DefaultBatchMaxDelay.
	BatchMaxDelay time.Duration
	// QueueLimit bounds admission: the total prompts queued or in
	// flight, across both endpoints. Excess requests get 429 with a
	// Retry-After hint. Default DefaultQueueLimit.
	QueueLimit int
	// RetryAfter is the back-off hint sent with 429 responses.
	// Default DefaultRetryAfter.
	RetryAfter time.Duration

	// Store, when set, records every completion keyed by
	// (backend, seed, prompt hash) and serves identical prompts from
	// the record without an endpoint call — dedup that spans workers
	// and daemon restarts. The server never closes the store.
	Store *store.Store

	// Tracer, when set, records server-side spans — request, gather,
	// batch, resolve, endpoint — joined to the caller's trace via the
	// propagation headers, serves recent traces on /debug/traces, and
	// feeds the slow-exemplar metric family. Nil disables tracing at
	// zero cost.
	Tracer *trace.Tracer

	// Fault, when set, arms deterministic chaos injection: the fronted
	// endpoint is wrapped at the "daemon.complete" point (malformed
	// completions, errors, latency) and the two completion handlers at
	// "daemon.handler" (slow responses, hangs, 500s). Injected counts
	// surface in the llm4vv_resilience_faults_injected_total metric
	// family. Nil — the production default — injects nothing.
	Fault *fault.Injector
}

// result is one resolved prompt handed back to a waiting request.
type result struct {
	resp string
	err  error
}

// pending is one /v1/complete request queued for the micro-batcher.
type pending struct {
	ctx    context.Context
	prompt string
	done   chan result // buffered(1): delivery never blocks dispatch
}

// Server is the judging daemon. Construct with New, mount Handler on
// an http.Server, and Close when done.
type Server struct {
	cfg   Config
	proto Protocol // the completion handlers, bound to this daemon
	// llm is the endpoint actually called: Config.LLM, wrapped at the
	// "daemon.complete" fault point when chaos injection is armed.
	// Config.LLM stays unwrapped for structural queries (Describe,
	// breaker states) — the fault shim must never mask those.
	llm      judge.LLM
	batch    judge.BatchLLM // nil when the endpoint is single-prompt only
	queue    chan *pending
	inflight atomic.Int64 // prompts admitted and not yet answered

	// delay is the adaptive straggler-gather wait, retuned after every
	// micro-batch between minDelay and Config.BatchMaxDelay: batches
	// that fill without the timer halve it (the queue is saturated —
	// waiting only adds latency), underfull timer-closed batches
	// double it back toward the configured maximum (light load —
	// waiting buys coalescing).
	delay    atomic.Int64
	minDelay int64

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// rec collects per-stage latency samples ("resolve" per shard,
	// "endpoint" per fronted-endpoint call) for the /metrics summary
	// series.
	rec *perf.Recorder

	requests        atomic.Int64
	batchRequests   atomic.Int64
	rejected        atomic.Int64
	endpointCalls   atomic.Int64
	endpointPrompts atomic.Int64
	coalesced       atomic.Int64
	storeHits       atomic.Int64
}

// batchPool recycles the micro-batcher's pending-slice backing arrays
// across batches; promptsPool does the same for the prompt slices a
// flush extracts. One batch forms every BatchMaxDelay under load, so
// without pooling the collector allocates two slices per batch
// forever.
var (
	batchPool   = sync.Pool{New: func() any { return new([]*pending) }}
	promptsPool = sync.Pool{New: func() any { return new([]string) }}
)

func getBatchSlice() []*pending {
	return (*batchPool.Get().(*[]*pending))[:0]
}

// putBatchSlice returns a batch's backing array to the pool, clearing
// the pending pointers so pooled arrays don't pin answered requests.
func putBatchSlice(batch []*pending) {
	for i := range batch {
		batch[i] = nil
	}
	b := batch[:0]
	batchPool.Put(&b)
}

func getPromptsSlice() []string {
	return (*promptsPool.Get().(*[]string))[:0]
}

func putPromptsSlice(prompts []string) {
	for i := range prompts {
		prompts[i] = ""
	}
	p := prompts[:0]
	promptsPool.Put(&p)
}

// New builds a Server over cfg and starts its micro-batch collector.
func New(cfg Config) *Server {
	if cfg.LLM == nil {
		panic("server: Config.LLM is required")
	}
	if cfg.BatchMaxSize <= 0 {
		cfg.BatchMaxSize = DefaultBatchMaxSize
	}
	if cfg.BatchMaxDelay <= 0 {
		cfg.BatchMaxDelay = DefaultBatchMaxDelay
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *pending, cfg.QueueLimit),
		rec:   perf.NewRecorder(),
	}
	s.minDelay = int64(cfg.BatchMaxDelay / 16)
	if s.minDelay < 1 {
		s.minDelay = 1
	}
	s.delay.Store(int64(cfg.BatchMaxDelay))
	s.llm = fault.LLM(cfg.Fault, "daemon.complete", cfg.LLM)
	s.batch, _ = s.llm.(judge.BatchLLM)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.proto = Protocol{
		RequestSpan:   "server.request",
		BatchSpan:     "server.batch_request",
		Tracer:        cfg.Tracer,
		RetryAfter:    cfg.RetryAfter,
		Oversized:     s.oversized,
		Admit:         s.admit,
		Complete:      s.enqueue,
		CompleteBatch: s.completeBatch,
		ErrorStatus:   errorStatus,
	}
	s.wg.Add(1)
	go s.collect()
	return s
}

// Close stops the collector, fails any queued requests, and waits for
// in-flight dispatches. Shut the http.Server down first so no new
// requests arrive while the queue drains.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	for {
		select {
		case p := <-s.queue:
			p.done <- result{err: errShuttingDown}
			s.inflight.Add(-1)
		default:
			return
		}
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:        s.requests.Load(),
		BatchRequests:   s.batchRequests.Load(),
		Rejected:        s.rejected.Load(),
		EndpointCalls:   s.endpointCalls.Load(),
		EndpointPrompts: s.endpointPrompts.Load(),
		Coalesced:       s.coalesced.Load(),
		StoreHits:       s.storeHits.Load(),
		GatherDelayNS:   s.delay.Load(),
	}
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.proto.Mount(mux, func(h http.Handler) http.Handler {
		return fault.Middleware(s.cfg.Fault, "daemon.handler", h)
	})
	mux.HandleFunc("/v1/backends", s.handleBackends)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// collect is the micro-batcher: it takes the first queued prompt,
// claims everything already waiting without arming a timer (a queue
// at BatchMaxSize pays zero gather delay), gathers stragglers for the
// adaptive delay when the batch is still underfull, and dispatches
// the coalesced shard on its own goroutine so the next batch starts
// forming immediately. Batch slices are pooled; flush returns them.
func (s *Server) collect() {
	defer s.wg.Done()
	for {
		var first *pending
		select {
		case first = <-s.queue:
		case <-s.baseCtx.Done():
			return
		}
		batch := append(getBatchSlice(), first)
		// Fast path: drain the backlog. Under sustained load whole
		// batches form here and the gather timer never runs.
	drain:
		for len(batch) < s.cfg.BatchMaxSize {
			select {
			case p := <-s.queue:
				batch = append(batch, p)
			default:
				break drain
			}
		}
		if len(batch) < s.cfg.BatchMaxSize {
			timer := time.NewTimer(s.GatherDelay())
		gather:
			for len(batch) < s.cfg.BatchMaxSize {
				select {
				case p := <-s.queue:
					batch = append(batch, p)
				case <-timer.C:
					break gather
				case <-s.baseCtx.Done():
					break gather
				}
			}
			timer.Stop()
		}
		s.adapt(len(batch))
		if len(batch) > 1 {
			s.coalesced.Add(1)
		}
		s.wg.Add(1)
		go func(batch []*pending) {
			defer s.wg.Done()
			s.flush(batch)
		}(batch)
	}
}

// GatherDelay reports the micro-batcher's current adaptive straggler
// wait (exposed in /healthz stats as gather_delay_ns).
func (s *Server) GatherDelay() time.Duration {
	return time.Duration(s.delay.Load())
}

// adapt retunes the gather delay from the size of the batch that just
// formed: a full batch halves the wait (down to BatchMaxDelay/16),
// a batch at half capacity or less doubles it (up to BatchMaxDelay).
// Between the two thresholds the delay holds steady.
func (s *Server) adapt(size int) {
	cur := s.delay.Load()
	switch {
	case size >= s.cfg.BatchMaxSize:
		if next := cur / 2; next >= s.minDelay {
			s.delay.Store(next)
		} else {
			s.delay.Store(s.minDelay)
		}
	case size*2 <= s.cfg.BatchMaxSize:
		next := cur * 2
		if maxd := int64(s.cfg.BatchMaxDelay); next > maxd {
			next = maxd
		}
		s.delay.Store(next)
	}
}

// flush resolves one coalesced micro-batch. Members whose context
// already ended are answered with that error and excluded; the rest
// share one resolve pass. A member's own deadline elapsing mid-flight
// is handled on the handler side — the batch completes for everyone
// else regardless. Every member's admission slot is released here,
// when its prompt is truly done, so QueueLimit bounds real
// outstanding work even when requesters disconnect early.
func (s *Server) flush(batch []*pending) {
	defer s.inflight.Add(int64(-len(batch)))
	defer putBatchSlice(batch)
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.done <- result{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	prompts := getPromptsSlice()
	defer func() { putPromptsSlice(prompts) }()
	for _, p := range live {
		prompts = append(prompts, p.prompt)
	}
	// The coalesced batch is one unit of work shared by every member;
	// its span opens under the first traced member's request (the
	// carrier), so that trace shows the whole gather-and-resolve
	// interval the member actually waited through. Resolution runs on
	// baseCtx — only the span rides over, never a member's
	// cancellation.
	rctx := s.baseCtx
	if s.cfg.Tracer != nil {
		for _, p := range live {
			if bctx, bspan := trace.Start(p.ctx, "server.batch"); bspan != nil {
				bspan.SetAttr("batch_size", strconv.Itoa(len(live)))
				defer bspan.End()
				rctx = trace.ContextWith(s.baseCtx, trace.FromContext(bctx))
				break
			}
		}
	}
	resps, err := s.resolve(rctx, prompts)
	if err != nil && s.baseCtx.Err() != nil {
		// The base context ends only at Close: report shutdown, not
		// the bare cancellation it caused.
		err = errShuttingDown
	}
	for i, p := range live {
		if err != nil {
			p.done <- result{err: err}
			continue
		}
		p.done <- result{resp: resps[i]}
	}
}

// dedupKey is the run-store key for one prompt's completion record.
func (s *Server) dedupKey(hash string) store.Key {
	return store.Key{Experiment: dedupPhase, Backend: s.cfg.Backend, Seed: s.cfg.Seed, FileHash: hash}
}

// resolve answers a shard of prompts: store hits and intra-shard
// duplicates cost nothing, and the remaining unique prompts go to the
// endpoint in a single CompleteBatch call when it supports one.
// Responses come back in prompt order, byte-identical to asking the
// endpoint each prompt alone. Dedup maps are keyed by the 32-byte
// prompt content hash (judge.PromptKey), not the prompt text, so a
// shard of multi-kilobyte prompts costs fixed-size keys; the hex form
// of the same hash is the store record's FileHash, exactly as
// store.HashSource would render it.
func (s *Server) resolve(ctx context.Context, prompts []string) ([]string, error) {
	defer func(start time.Time) { s.rec.Observe("resolve", time.Since(start)) }(time.Now())
	var span *trace.Span
	ctx, span = trace.Start(ctx, "server.resolve")
	if span != nil {
		span.SetAttr("prompts", strconv.Itoa(len(prompts)))
		defer span.End()
	}
	out := make([]string, len(prompts))
	// resolved maps a prompt key seen earlier in the shard to the slot
	// holding its response; missing are the unique prompts that still
	// need the endpoint, each answering the slots in positions.
	resolved := map[judge.PromptKey]int{}
	var missing []string
	var missingKeys []judge.PromptKey
	positions := map[judge.PromptKey][]int{}
	for i, p := range prompts {
		k := judge.KeyOf(p)
		if j, dup := resolved[k]; dup {
			out[i] = out[j]
			s.storeHits.Add(1)
			continue
		}
		if idxs, dup := positions[k]; dup {
			positions[k] = append(idxs, i)
			s.storeHits.Add(1)
			continue
		}
		if s.cfg.Store != nil {
			// The serve/completions namespace holds only records this
			// path wrote, so presence alone is the hit signal — an
			// endpoint whose legitimate response is empty still dedups.
			if rec, ok := s.cfg.Store.Get(s.dedupKey(k.Hex())); ok {
				out[i] = rec.Response
				resolved[k] = i
				s.storeHits.Add(1)
				continue
			}
		}
		positions[k] = []int{i}
		missing = append(missing, p)
		missingKeys = append(missingKeys, k)
	}
	if span != nil {
		span.SetAttr("dedup_hits", strconv.Itoa(len(prompts)-len(missing)))
	}
	if len(missing) == 0 {
		return out, nil
	}
	resps, err := s.completeEndpoint(ctx, missing)
	if err != nil {
		return nil, err
	}
	for m, k := range missingKeys {
		for _, i := range positions[k] {
			out[i] = resps[m]
		}
		if s.cfg.Store != nil {
			_ = s.cfg.Store.Put(store.Record{
				Experiment: dedupPhase, Backend: s.cfg.Backend, Seed: s.cfg.Seed,
				FileHash: k.Hex(), JudgeRan: true, Response: resps[m],
			})
		}
	}
	if s.cfg.Store != nil {
		// The store is write-behind; one flush per resolved shard keeps
		// dedup records durable at micro-batch granularity.
		_ = s.cfg.Store.Flush()
	}
	return out, nil
}

// completeEndpoint submits unique prompts to the fronted endpoint
// through the richest contract it offers (judge.CompleteAll): one
// call for batch-capable backends, one per prompt otherwise.
func (s *Server) completeEndpoint(ctx context.Context, prompts []string) ([]string, error) {
	if s.batch != nil {
		s.endpointCalls.Add(1)
	} else {
		s.endpointCalls.Add(int64(len(prompts)))
	}
	s.endpointPrompts.Add(int64(len(prompts)))
	defer func(start time.Time) { s.rec.Observe("endpoint", time.Since(start)) }(time.Now())
	ctx, span := trace.Start(ctx, "server.endpoint")
	if span != nil {
		span.SetAttr("prompts", strconv.Itoa(len(prompts)))
		defer span.End()
	}
	return judge.CompleteAll(ctx, s.llm, prompts)
}

// admit reserves n prompt slots under QueueLimit. A single's slot is
// freed when its pending resolves (flush, or the Close drain), not when
// the handler returns, so a requester that gives up early cannot free
// capacity its abandoned prompt still occupies.
func (s *Server) admit(_ *http.Request, _ *trace.Span, n int, _ bool) (func(), string) {
	if s.inflight.Add(int64(n)) > int64(s.cfg.QueueLimit) {
		s.inflight.Add(int64(-n))
		s.rejected.Add(1)
		return nil, "server overloaded, retry later"
	}
	return nil, ""
}

// oversized names the fix for a shard that can never fit QueueLimit.
func (s *Server) oversized(_ *http.Request, n int) string {
	if n <= s.cfg.QueueLimit {
		return ""
	}
	return fmt.Sprintf("batch of %d prompts exceeds the daemon queue limit %d; lower the client shard size or raise -queue", n, s.cfg.QueueLimit)
}

// enqueue hands one admitted prompt to the micro-batcher and waits for
// its answer; if the requester gives up first, the coalesced batch
// still completes for its other members.
func (s *Server) enqueue(ctx context.Context, prompt string) (string, error) {
	s.requests.Add(1)
	p := &pending{ctx: ctx, prompt: prompt, done: make(chan result, 1)}
	select {
	case s.queue <- p:
	case <-s.baseCtx.Done():
		s.inflight.Add(-1)
		return "", errShuttingDown
	}
	select {
	case res := <-p.done:
		return res.resp, res.err
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// completeBatch resolves a whole shard, then frees its slots.
func (s *Server) completeBatch(ctx context.Context, prompts []string) ([]string, error) {
	defer s.inflight.Add(int64(-len(prompts)))
	s.batchRequests.Add(1)
	return s.resolve(ctx, prompts)
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	resp := BackendsResponse{
		Serving:    s.cfg.Backend,
		Seed:       s.cfg.Seed,
		Batch:      s.batch != nil,
		Registered: s.cfg.Registered,
		ReplicaID:  s.cfg.ReplicaID,
	}
	// A served voting panel describes itself; matched structurally so
	// the daemon core stays endpoint-agnostic (like judge's generator
	// interface).
	if p, ok := s.cfg.LLM.(interface{ Describe() ([]string, string) }); ok {
		resp.PanelMembers, resp.PanelStrategy = p.Describe()
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{
		OK:        true,
		Backend:   s.cfg.Backend,
		Seed:      s.cfg.Seed,
		ReplicaID: s.cfg.ReplicaID,
		Stats:     s.Stats(),
	})
}

// handleMetrics serves GET /metrics: the serving counters and the
// per-stage latency summaries in Prometheus text exposition, every
// series labelled with this instance's replica ID so a fleet's scrapes
// aggregate without relabelling. Families come from the perf registry
// (perf.Families), which docs/OPERATIONS.md documents one for one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	replica := perf.Label("replica", s.cfg.ReplicaID)
	WriteMetrics(w, func(p *perf.Prom) {
		p.EmitValue(perf.FamRequests, float64(st.Requests), replica)
		p.EmitValue(perf.FamBatchRequests, float64(st.BatchRequests), replica)
		p.EmitValue(perf.FamRejected, float64(st.Rejected), replica)
		p.EmitValue(perf.FamEndpointCalls, float64(st.EndpointCalls), replica)
		p.EmitValue(perf.FamEndpointPrompts, float64(st.EndpointPrompts), replica)
		p.EmitValue(perf.FamCoalescedBatches, float64(st.Coalesced), replica)
		p.EmitValue(perf.FamStoreHits, float64(st.StoreHits), replica)
		p.EmitValue(perf.FamGatherDelay, time.Duration(st.GatherDelayNS).Seconds(), replica)
		p.EmitValue(perf.FamInflight, float64(s.inflight.Load()), replica)
		p.EmitSummaries(perf.FamStageSeconds, s.rec.Snapshot(), replica)
		s.proto.EmitSlowExemplars(p, replica)
		EmitResilience(p, s.cfg.Fault, s.cfg.LLM, replica)
		if s.cfg.Store != nil {
			sst := s.cfg.Store.Stats()
			p.EmitValue(perf.FamStoreKeys, float64(sst.Keys), replica)
			p.EmitValue(perf.FamStoreSegments, float64(sst.SegmentCount()), replica)
			p.EmitValue(perf.FamStoreActiveBytes, float64(sst.ActiveBytes), replica)
			p.EmitValue(perf.FamStoreDropped, float64(sst.Dropped), replica)
		}
	})
}

// EmitResilience writes the llm4vv_resilience_* families: injected
// chaos-fault counts per point, remote-client retries, and per-target
// circuit-breaker states. The retry and breaker sources are optional
// interfaces matched structurally on the fronted endpoint (the remote
// client and the fleet router implement both; local backends neither)
// so this package needs no import of either. Zero-valued series are
// emitted when a source is absent — the families must always appear
// on /metrics, armed or not. Shared with the router's endpoint.
func EmitResilience(p *perf.Prom, inj *fault.Injector, source any, instance [2]string) {
	points := inj.Injected()
	if len(points) == 0 {
		p.EmitValue(perf.FamResilienceFaults, 0, instance)
	} else {
		samples := make([]perf.Sample, len(points))
		for i, pc := range points {
			samples[i] = perf.Sample{Labels: [][2]string{instance, perf.Label("point", pc.Point)}, Value: float64(pc.Count)}
		}
		p.Emit(perf.FamResilienceFaults, samples...)
	}
	var retries int64
	if r, ok := source.(interface{ Retries() int64 }); ok {
		retries = r.Retries()
	}
	p.EmitValue(perf.FamResilienceRetries, float64(retries), instance)
	var states []resilience.BreakerStatus
	if b, ok := source.(interface {
		BreakerStates() []resilience.BreakerStatus
	}); ok {
		states = b.BreakerStates()
	}
	if len(states) == 0 {
		p.EmitValue(perf.FamResilienceBreakerState, 0, instance)
		return
	}
	samples := make([]perf.Sample, len(states))
	for i, st := range states {
		samples[i] = perf.Sample{Labels: [][2]string{instance, perf.Label("target", st.ID)}, Value: float64(st.State)}
	}
	p.Emit(perf.FamResilienceBreakerState, samples...)
}
