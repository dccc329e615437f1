package main

// Benchmark-owned tracing. Spans are recorded only here, around the
// public entry points of each layer: judge endpoints (judge.LLM
// wrappers), replica clients (fleet.Client wrappers), HTTP handlers
// (middleware) and pipeline stages (StageSpec.Observe). Parents travel
// in a context value in-process and in the spanHeader across HTTP.
// Spans stay in memory until the run ends, when they are written out
// as JSONL and aggregated into per-layer self time (selftime.go).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/judge"
	"repro/internal/pipeline"
	"repro/internal/remote"
	"repro/internal/server"
)

// Layer names: the span names every workload reports per-layer
// metrics under.
const (
	layerRunner   = "runner"
	layerCompile  = "pipeline.compile"
	layerExec     = "pipeline.exec"
	layerJudge    = "judge"
	layerModel    = "model"
	layerEnsemble = "ensemble"
	layerRemote   = "remote"
	layerFrontend = "fleet.frontend"
	layerReplica  = "fleet.replica"
	layerServer   = "server"
)

var layers = []string{layerRunner, layerCompile, layerExec, layerJudge, layerModel,
	layerEnsemble, layerRemote, layerFrontend, layerReplica, layerServer}

// spanHeader carries the caller's span ID across HTTP.
const spanHeader = "X-E2EBench-Span"

// Span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. Links name further parents: a replica endpoint
// call that served a micro-batch of several waiting requests is a
// child of each of them.
type Span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Links  []uint64 `json:"links,omitempty"`
	Name   string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// recorder keeps every span of the traced window in memory.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64
	// root is the span every Observe-recorded pipeline stage hangs
	// under: the sweep in progress (one caller, so one at a time).
	root atomic.Uint64

	mu    sync.Mutex
	spans []Span
	// byG holds, per goroutine, model spans recorded inside a judge
	// pipeline stage that has not reported its duration yet. The
	// stage calls the model on its own worker goroutine and then
	// Observe on the same goroutine, which is how the judge span
	// adopts them.
	byG map[uint64][]int
}

var rec = &recorder{epoch: time.Now(), byG: map[uint64][]int{}}

// reset drops every recorded span.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.byG = map[uint64][]int{}
	r.mu.Unlock()
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

type spanKey struct{}

func spanOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// start opens a span under the context's span (or parent, when the
// context carries none). It returns the context unchanged and a nil
// span while tracing is off.
func (r *recorder) start(ctx context.Context, name string, parent uint64) (context.Context, *Span) {
	if !r.on.Load() {
		return ctx, nil
	}
	if p := spanOf(ctx); p != 0 {
		parent = p
	}
	s := &Span{ID: r.next.Add(1), Parent: parent, Name: name, Start: r.now()}
	return context.WithValue(ctx, spanKey{}, s.ID), s
}

// end closes s and records it, returning its index (-1 for nil).
func (r *recorder) end(s *Span) int {
	if s == nil {
		return -1
	}
	s.End = r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, *s)
	return len(r.spans) - 1
}

// observe records a pipeline stage execution reported through
// StageSpec.Observe, which fires on the stage worker right after the
// stage ran for d. A judge stage adopts the model spans its goroutine
// recorded during that interval.
func (r *recorder) observe(stage string, d time.Duration) {
	if !r.on.Load() {
		return
	}
	end := r.now()
	s := Span{ID: r.next.Add(1), Parent: r.root.Load(), Start: end - int64(d), End: end}
	switch stage {
	case pipeline.StageCompile:
		s.Name = layerCompile
	case pipeline.StageExec:
		s.Name = layerExec
	default:
		s.Name = layerJudge
	}
	var g uint64
	if s.Name == layerJudge {
		g = goid()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	if g == 0 {
		return
	}
	for _, i := range r.byG[g] {
		if r.spans[i].Start >= s.Start {
			r.spans[i].Parent = s.ID
		}
	}
	delete(r.byG, g)
}

// adoptable marks span i as recorded on the calling goroutine, for a
// judge stage observed later on the same goroutine to adopt.
func (r *recorder) adoptable(i int) {
	g := goid()
	r.mu.Lock()
	r.byG[g] = append(r.byG[g], i)
	r.mu.Unlock()
}

// goid returns the calling goroutine's ID, parsed from the first line
// of its stack trace ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeSpans writes spans as JSONL, one span per line.
func writeSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readSpans parses span JSONL.
func readSpans(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// waitlist maps a prompt to the server spans of the /v1/complete
// requests waiting on it. The replica micro-batcher resolves singles
// on a context of its own, so the endpoint call that serves them
// finds its parents here instead of in its context.
type waitlist struct {
	mu sync.Mutex
	m  map[string][]uint64
}

func newWaitlist() *waitlist { return &waitlist{m: map[string][]uint64{}} }

func (w *waitlist) add(prompt string, id uint64) {
	w.mu.Lock()
	w.m[prompt] = append(w.m[prompt], id)
	w.mu.Unlock()
}

func (w *waitlist) remove(prompt string, id uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := w.m[prompt]
	for i, v := range ids {
		if v == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(w.m, prompt)
	} else {
		w.m[prompt] = ids
	}
}

// parents lists the spans waiting on any of the prompts.
func (w *waitlist) parents(prompts []string) []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []uint64
	for _, p := range prompts {
		out = append(out, w.m[p]...)
	}
	return out
}

// middleware records one span per completion request around an HTTP
// handler (health probes and metrics scrapes are not the layer's
// work), continuing the caller's span from spanHeader. With waits set,
// the prompt of each /v1/complete request is registered for the
// replica endpoint to find (see waitlist).
func middleware(layer string, h http.Handler, waits *waitlist) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/complete") {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		ctx, s := rec.start(r.Context(), layer, parent)
		if waits != nil && s != nil && r.URL.Path == "/v1/complete" {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var req server.CompleteRequest
				if json.Unmarshal(body, &req) == nil {
					waits.add(req.Prompt, s.ID)
					defer waits.remove(req.Prompt, s.ID)
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r.WithContext(ctx))
		rec.end(s)
	})
}

// injector is the http.RoundTripper that carries the caller's span
// across the wire.
type injector struct{ base http.RoundTripper }

func (in injector) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := spanOf(req.Context()); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return in.base.RoundTrip(req)
}

// httpClient returns a client whose transport injects span headers;
// maxConns > 0 caps its connections per host.
func httpClient(maxConns int) (*http.Client, *http.Transport) {
	t := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 128, IdleConnTimeout: 90 * time.Second}
	if maxConns > 0 {
		t.MaxConnsPerHost = maxConns
		t.MaxIdleConnsPerHost = maxConns
	}
	return &http.Client{Transport: injector{t}}, t
}

// latencies collects durations from concurrent callers.
type latencies struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

func (l *latencies) take() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.d
	l.d = nil
	return d
}

// exchanges collects prompt/response pairs for the correctness digest.
type exchanges struct {
	mu    sync.Mutex
	pairs [][2]string
}

func (e *exchanges) add(prompts, resps []string) {
	e.mu.Lock()
	for i := range prompts {
		e.pairs = append(e.pairs, [2]string{prompts[i], resps[i]})
	}
	e.mu.Unlock()
}

func (e *exchanges) take() [][2]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.pairs
	e.pairs = nil
	return p
}

// tracedLLM wraps a judge endpoint as one layer: every call records a
// span named after the layer, and optionally its prompt/response
// pairs. It offers every endpoint contract (single, cancellable,
// batched) and delegates to the richest one the wrapped endpoint has,
// so the wrapped endpoint sees the calls it would see unwrapped.
type tracedLLM struct {
	layer string
	inner judge.LLM
	// waits, when set, supplies parents for calls whose context
	// carries no span (replica endpoints behind the micro-batcher).
	waits *waitlist
	// stage marks calls made from a judge pipeline stage's goroutine
	// as adoptable by that stage's span.
	stage bool
	seen  *exchanges
}

func (t *tracedLLM) Complete(prompt string) string {
	resp, err := t.CompleteContext(context.Background(), prompt)
	if err != nil {
		return ""
	}
	return resp
}

func (t *tracedLLM) CompleteContext(ctx context.Context, prompt string) (string, error) {
	prompts := []string{prompt}
	ctx, s := t.begin(ctx, prompts)
	var resp string
	var err error
	if cl, ok := t.inner.(judge.ContextLLM); ok {
		resp, err = cl.CompleteContext(ctx, prompt)
	} else {
		resp = t.inner.Complete(prompt)
	}
	if err != nil {
		rec.end(s)
		return "", err
	}
	t.finish(s, prompts, []string{resp})
	return resp, nil
}

func (t *tracedLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	ctx, s := t.begin(ctx, prompts)
	resps, err := judge.CompleteAll(ctx, t.inner, prompts)
	if err != nil {
		rec.end(s)
		return nil, err
	}
	t.finish(s, prompts, resps)
	return resps, nil
}

func (t *tracedLLM) begin(ctx context.Context, prompts []string) (context.Context, *Span) {
	ctx, s := rec.start(ctx, t.layer, 0)
	if s != nil && s.Parent == 0 && t.waits != nil {
		if ps := t.waits.parents(prompts); len(ps) > 0 {
			s.Parent, s.Links = ps[0], ps[1:]
		}
	}
	return ctx, s
}

func (t *tracedLLM) finish(s *Span, prompts, resps []string) {
	if t.seen != nil {
		t.seen.add(prompts, resps)
	}
	if i := rec.end(s); i >= 0 && t.stage {
		rec.adoptable(i)
	}
}

// replicaClient is the fleet.Client the router dials a replica
// through: a traced remote client plus the untraced health probe.
type replicaClient struct {
	tracedLLM
	rb *remote.Backend
}

func (c *replicaClient) Ping(ctx context.Context) error { return c.rb.Ping(ctx) }
