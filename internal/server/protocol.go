package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/perf"
	"repro/internal/trace"
)

// Protocol is the completion handler set mounted by both llm4vvd and
// llm4vv-router. It owns decoding and validation, the joined request
// span, 429 + Retry-After, 504 for the requester's own context ending,
// the response bodies, /debug/traces and the slow-exemplar family;
// each side's constructor supplies only what differs between them.
type Protocol struct {
	RequestSpan, BatchSpan string // "<side>.request", "<side>.batch_request"
	Tracer                 *trace.Tracer
	RetryAfter             time.Duration // the hint sent with every 429

	// Oversized explains why a batch of n prompts could never be
	// admitted (a permanent 413 — clients retry 429 forever), or "".
	Oversized func(r *http.Request, n int) string
	// Admit reserves n prompt slots or returns the 429 refusal. A
	// non-nil release runs when the handler returns; a side whose
	// slots outlive the handler frees them from its calls instead.
	Admit         func(r *http.Request, span *trace.Span, n int, batch bool) (release func(), refusal string)
	Complete      func(ctx context.Context, prompt string) (string, error)
	CompleteBatch func(ctx context.Context, prompts []string) ([]string, error)
	// ErrorStatus maps any call error but a context ending.
	ErrorStatus func(err error) int
}

// Mount registers the completion endpoints, each through wrap when
// non-nil, and /debug/traces on mux.
func (p *Protocol) Mount(mux *http.ServeMux, wrap func(http.Handler) http.Handler) {
	single, batch := http.Handler(http.HandlerFunc(p.complete)), http.Handler(http.HandlerFunc(p.completeBatch))
	if wrap != nil {
		single, batch = wrap(single), wrap(batch)
	}
	mux.Handle("/v1/complete", single)
	mux.Handle("/v1/complete_batch", batch)
	mux.HandleFunc("/debug/traces", p.debugTraces)
}

func (p *Protocol) complete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Prompt == "" {
		WriteError(w, http.StatusBadRequest, "empty prompt")
		return
	}
	ctx, span := p.join(r, p.RequestSpan)
	defer span.End()
	release, ok := p.admit(w, r, span, 1, false)
	if !ok {
		return
	}
	if release != nil {
		defer release()
	}
	resp, err := p.Complete(ctx, req.Prompt)
	if err != nil {
		p.fail(w, span, err)
		return
	}
	WriteJSON(w, http.StatusOK, CompleteResponse{Response: resp})
}

func (p *Protocol) completeBatch(w http.ResponseWriter, r *http.Request) {
	var req CompleteBatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	n := len(req.Prompts)
	if n == 0 {
		WriteJSON(w, http.StatusOK, CompleteBatchResponse{Responses: []string{}})
		return
	}
	if msg := p.Oversized(r, n); msg != "" {
		WriteError(w, http.StatusRequestEntityTooLarge, msg)
		return
	}
	ctx, span := p.join(r, p.BatchSpan)
	defer span.End()
	span.SetAttr("prompts", strconv.Itoa(n))
	release, ok := p.admit(w, r, span, n, true)
	if !ok {
		return
	}
	if release != nil {
		defer release()
	}
	resps, err := p.CompleteBatch(ctx, req.Prompts)
	if err != nil {
		p.fail(w, span, err)
		return
	}
	WriteJSON(w, http.StatusOK, CompleteBatchResponse{Responses: resps})
}

// join opens the request span, continuing the caller's trace when the
// propagation headers carry one; without a tracer the span is nil.
func (p *Protocol) join(r *http.Request, name string) (context.Context, *trace.Span) {
	if p.Tracer == nil {
		return r.Context(), nil
	}
	traceHex, spanHex := trace.Extract(r.Header)
	return p.Tracer.Join(r.Context(), traceHex, spanHex, name)
}

// admit answers a refusal with 429 and the fractional Retry-After hint
// the remote client's backoff honours.
func (p *Protocol) admit(w http.ResponseWriter, r *http.Request, span *trace.Span, n int, batch bool) (func(), bool) {
	release, refusal := p.Admit(r, span, n, batch)
	if refusal == "" {
		return release, true
	}
	span.SetAttr("shed", "true")
	w.Header().Set("Retry-After", strconv.FormatFloat(p.RetryAfter.Seconds(), 'f', -1, 64))
	WriteError(w, http.StatusTooManyRequests, refusal)
	return nil, false
}

func (p *Protocol) fail(w http.ResponseWriter, span *trace.Span, err error) {
	span.SetAttr("error", err.Error())
	status := http.StatusGatewayTimeout
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		status = p.ErrorStatus(err)
	}
	WriteError(w, status, err.Error())
}

// debugTraces serves the tracer's recent-fragment ring as a JSON array
// — an empty one without a tracer, so probes need no mode awareness.
func (p *Protocol) debugTraces(w http.ResponseWriter, r *http.Request) {
	recent := p.Tracer.Recent()
	if recent == nil {
		recent = []trace.Record{}
	}
	WriteJSON(w, http.StatusOK, recent)
}

// EmitSlowExemplars writes the llm4vv_trace_slow_exemplar family: one
// gauge per retained exemplar, valued at the span duration in seconds
// and labelled with the instance, span name and trace ID.
func (p *Protocol) EmitSlowExemplars(prom *perf.Prom, instance [2]string) {
	exemplars := p.Tracer.SlowExemplars()
	if len(exemplars) == 0 {
		return
	}
	samples := make([]perf.Sample, len(exemplars))
	for i, ex := range exemplars {
		samples[i] = perf.Sample{
			Labels: [][2]string{instance, perf.Label("stage", ex.Stage), perf.Label("trace_id", ex.Trace)},
			Value:  time.Duration(ex.DurNS).Seconds(),
		}
	}
	prom.Emit(perf.FamTraceSlowExemplar, samples...)
}

// readJSON decodes a POST body, answering 405/400 itself on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// WriteJSON writes every JSON response of both sides.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteMetrics answers a /metrics scrape on both sides: emit writes
// the families into a buffer, and the exposition goes out as
// Prometheus text only when every family rendered, else a 500.
func WriteMetrics(w http.ResponseWriter, emit func(p *perf.Prom)) {
	var buf bytes.Buffer
	p := perf.NewProm(&buf)
	emit(p)
	if err := p.Err(); err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// WriteError writes the ErrorResponse body of every non-2xx response.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg})
}
