package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/trace"
)

// FrontendConfig configures the router daemon's HTTP face. Router is
// the only required field.
type FrontendConfig struct {
	Router *Router
	// ID names this router instance in /healthz and /metrics labels.
	ID string
	// QueueLimit bounds total admitted in-flight prompts; interactive
	// requests are admitted up to it. Default server.DefaultQueueLimit.
	QueueLimit int
	// BulkLimit is the lower admission ceiling for bulk-class
	// requests, so sweep traffic sheds (429) before interactive
	// traffic under overload. Default QueueLimit/2.
	BulkLimit int
	// ClientQuota caps one client's in-flight prompts (keyed by the
	// X-LLM4VV-Client header, falling back to the remote address) so a
	// single runaway sweep cannot starve the fleet. 0 disables.
	ClientQuota int
	// RetryAfter is the back-off hint sent with 429 responses.
	// Default server.DefaultRetryAfter.
	RetryAfter time.Duration
	// Tracer, when set, joins inbound traces (propagation headers),
	// records routing spans, serves /debug/traces, and feeds the
	// slow-exemplar metric family. Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// Logger receives structured admission events — every 429 shed is
	// logged with its trace_id, priority, and client; nil discards.
	Logger *slog.Logger
	// Fault, when set, is the chaos injector whose injected-fault
	// counts surface in the router's llm4vv_resilience_* metric
	// families (the Router's Config.Fault should reference the same
	// injector). Nil — the production default — reports zeros.
	Fault *fault.Injector
}

// Frontend is the HTTP admission layer over a Router: the daemon's
// completion handler set bound to priority-class load shedding,
// per-client quotas, and routing, plus the router's own /healthz,
// /v1/backends and Prometheus metrics. Construct with NewFrontend and
// mount Handler.
//
// A request's priority class comes from the X-LLM4VV-Priority header
// ("interactive" or "bulk"); absent the header, single-prompt
// requests default to interactive and batch requests to bulk — the
// batch path is the sweep path, and overload should shed sweeps
// before humans.
type Frontend struct {
	cfg   FrontendConfig
	rec   *perf.Recorder
	proto server.Protocol // the daemon's completion handlers, bound to this router

	inflight atomic.Int64
	mu       sync.Mutex
	clients  map[string]int64

	admittedInteractive atomic.Int64
	admittedBulk        atomic.Int64
	shedInteractive     atomic.Int64
	shedBulk            atomic.Int64
	quotaRejected       atomic.Int64
}

// NewFrontend builds the HTTP face over a Router.
func NewFrontend(cfg FrontendConfig) *Frontend {
	if cfg.Router == nil {
		panic("fleet: FrontendConfig.Router is required")
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = server.DefaultQueueLimit
	}
	if cfg.BulkLimit <= 0 || cfg.BulkLimit > cfg.QueueLimit {
		cfg.BulkLimit = cfg.QueueLimit / 2
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = server.DefaultRetryAfter
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	f := &Frontend{cfg: cfg, rec: perf.NewRecorder(), clients: map[string]int64{}}
	f.proto = server.Protocol{
		RequestSpan:   "router.request",
		BatchSpan:     "router.batch_request",
		Tracer:        cfg.Tracer,
		RetryAfter:    cfg.RetryAfter,
		Oversized:     f.oversized,
		Admit:         f.admit,
		Complete:      f.route,
		CompleteBatch: f.routeBatch,
		// A fleet with no replica able to serve is a true gateway
		// failure, transient to retrying clients.
		ErrorStatus: func(error) int { return http.StatusBadGateway },
	}
	return f
}

// Stats is a snapshot of the admission counters.
func (f *Frontend) Stats() FrontendStats {
	return FrontendStats{
		AdmittedInteractive: f.admittedInteractive.Load(),
		AdmittedBulk:        f.admittedBulk.Load(),
		ShedInteractive:     f.shedInteractive.Load(),
		ShedBulk:            f.shedBulk.Load(),
		QuotaRejected:       f.quotaRejected.Load(),
	}
}

// Handler returns the router daemon's route table — the same paths a
// replica serves, so clients are none the wiser.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	f.proto.Mount(mux, nil)
	mux.HandleFunc("/v1/backends", f.handleBackends)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	return mux
}

// classOf resolves a request's priority class: the explicit header
// wins, otherwise batch requests are bulk and singles interactive.
func classOf(r *http.Request, batch bool) string {
	switch r.Header.Get(remote.PriorityHeader) {
	case remote.PriorityBulk:
		return remote.PriorityBulk
	case remote.PriorityInteractive:
		return remote.PriorityInteractive
	}
	if batch {
		return remote.PriorityBulk
	}
	return remote.PriorityInteractive
}

// clientOf names the requesting client for quota accounting.
func clientOf(r *http.Request) string {
	if c := r.Header.Get(remote.ClientHeader); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// oversized names the fix for a batch that can never be admitted: one
// larger than the queue limit, than its class ceiling, or than the
// client quota would draw 429s forever.
func (f *Frontend) oversized(r *http.Request, n int) string {
	switch {
	case n > f.cfg.QueueLimit:
		return fmt.Sprintf("batch of %d prompts exceeds the router queue limit %d; lower the client shard size or raise -queue", n, f.cfg.QueueLimit)
	case classOf(r, true) == remote.PriorityBulk && n > f.cfg.BulkLimit:
		return fmt.Sprintf("batch of %d prompts exceeds the router bulk-class ceiling %d; lower the client shard size or raise -bulk-queue", n, f.cfg.BulkLimit)
	case f.cfg.ClientQuota > 0 && n > f.cfg.ClientQuota:
		return fmt.Sprintf("batch of %d prompts exceeds the per-client in-flight quota %d; lower the client shard size or raise -client-quota", n, f.cfg.ClientQuota)
	}
	return ""
}

// admit is the router's admission policy: n prompt slots under the
// request's class ceiling and its client's quota. The returned release
// runs when the prompts resolve.
func (f *Frontend) admit(r *http.Request, span *trace.Span, n int, batch bool) (release func(), refusal string) {
	class, client := classOf(r, batch), clientOf(r)
	span.SetAttr("priority", class)
	limit, shed, admitted := f.cfg.QueueLimit, &f.shedInteractive, &f.admittedInteractive
	if class == remote.PriorityBulk {
		limit, shed, admitted = f.cfg.BulkLimit, &f.shedBulk, &f.admittedBulk
	}
	if f.inflight.Add(int64(n)) > int64(limit) {
		f.inflight.Add(int64(-n))
		shed.Add(1)
		f.logShed(span, class, client, n)
		return nil, fmt.Sprintf("router overloaded (%s class), retry later", class)
	}
	if q := int64(f.cfg.ClientQuota); q > 0 {
		if f.clientAdd(client, int64(n)) > q {
			f.clientAdd(client, int64(-n))
			f.inflight.Add(int64(-n))
			f.quotaRejected.Add(1)
			f.logShed(span, class, client, n)
			return nil, fmt.Sprintf("client %q exceeds its in-flight quota of %d prompts, retry later", client, q)
		}
	}
	admitted.Add(int64(n))
	return func() {
		f.inflight.Add(int64(-n))
		if f.cfg.ClientQuota > 0 {
			f.clientAdd(client, int64(-n))
		}
	}, ""
}

// clientAdd adjusts one client's in-flight count, dropping zeroed
// entries so the table tracks only active clients.
func (f *Frontend) clientAdd(client string, n int64) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.clients[client] + n
	if v <= 0 {
		delete(f.clients, client)
		return v
	}
	f.clients[client] = v
	return v
}

// logShed records a 429 with the identity needed to attribute a shed
// sweep afterwards: the trace (empty when the caller sent none), the
// priority class, and the quota client.
func (f *Frontend) logShed(span *trace.Span, class, client string, prompts int) {
	f.cfg.Logger.Warn("router: request shed (429)",
		"trace_id", span.TraceHex(), "priority", class, "client", client, "prompts", prompts)
}

// route and routeBatch are the router's single and batch calls, timed
// into the route and route_batch stage summaries.
func (f *Frontend) route(ctx context.Context, prompt string) (string, error) {
	defer f.observe("route", time.Now())
	return f.cfg.Router.CompleteContext(ctx, prompt)
}

func (f *Frontend) routeBatch(ctx context.Context, prompts []string) ([]string, error) {
	defer f.observe("route_batch", time.Now())
	return f.cfg.Router.CompleteBatch(ctx, prompts)
}

func (f *Frontend) observe(stage string, start time.Time) {
	f.rec.Observe(stage, time.Since(start))
}

// handleBackends answers /v1/backends on the fleet's behalf: the
// first healthy replica that can describe itself does (replicas of one
// fleet serve the same backend by construction), decorated with the
// router's ID and the replica list. A fleet with no describable
// replica still reports its shape.
func (f *Frontend) handleBackends(w http.ResponseWriter, r *http.Request) {
	resp := server.BackendsResponse{
		Serving:   "fleet:" + strings.Join(f.cfg.Router.Addrs(), ","),
		Batch:     true,
		ReplicaID: f.cfg.ID,
		Replicas:  f.cfg.Router.Addrs(),
	}
	type describer interface {
		Info(ctx context.Context) (server.BackendsResponse, error)
	}
	for _, st := range f.cfg.Router.replicas {
		if !st.healthy.Load() {
			continue
		}
		d, ok := st.client.(describer)
		if !ok {
			break
		}
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		info, err := d.Info(ctx)
		cancel()
		if err != nil {
			continue
		}
		info.ReplicaID = f.cfg.ID
		info.Replicas = f.cfg.Router.Addrs()
		resp = info
		break
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	replicas := f.cfg.Router.Replicas()
	ok := false
	for _, rs := range replicas {
		if rs.Healthy {
			ok = true
			break
		}
	}
	status := http.StatusOK
	if !ok {
		// No healthy replica: report unhealthy so load balancers and
		// the remote client's Ping fail over to another router.
		status = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, status, HealthResponse{
		OK:       ok,
		RouterID: f.cfg.ID,
		Replicas: replicas,
		Routing:  f.cfg.Router.Stats(),
		Serving:  f.Stats(),
	})
}

// handleMetrics serves the router's Prometheus exposition: admission
// counters by priority class, routing counters, per-replica health and
// traffic, and the route-stage latency summaries. Families come from
// the perf registry (perf.Families), which docs/OPERATIONS.md
// documents one for one.
func (f *Frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	router := perf.Label("router", f.cfg.ID)
	rs := f.cfg.Router.Stats()
	fs := f.Stats()
	server.WriteMetrics(w, func(p *perf.Prom) {
		p.Emit(perf.FamRouterAdmitted,
			perf.Sample{Labels: [][2]string{router, perf.Label("priority", remote.PriorityInteractive)}, Value: float64(fs.AdmittedInteractive)},
			perf.Sample{Labels: [][2]string{router, perf.Label("priority", remote.PriorityBulk)}, Value: float64(fs.AdmittedBulk)},
		)
		p.Emit(perf.FamRouterShed,
			perf.Sample{Labels: [][2]string{router, perf.Label("priority", remote.PriorityInteractive)}, Value: float64(fs.ShedInteractive)},
			perf.Sample{Labels: [][2]string{router, perf.Label("priority", remote.PriorityBulk)}, Value: float64(fs.ShedBulk)},
		)
		p.EmitValue(perf.FamRouterQuotaRejected, float64(fs.QuotaRejected), router)
		p.EmitValue(perf.FamRouterRequests, float64(rs.Requests), router)
		p.EmitValue(perf.FamRouterBatchRequests, float64(rs.BatchRequests), router)
		p.EmitValue(perf.FamRouterRoutedPrompts, float64(rs.RoutedPrompts), router)
		p.EmitValue(perf.FamRouterFailovers, float64(rs.Failovers), router)
		p.EmitValue(perf.FamRouterSpills, float64(rs.Spills), router)
		p.EmitValue(perf.FamRouterInflight, float64(f.inflight.Load()), router)
		replicas := f.cfg.Router.Replicas()
		healthy := make([]perf.Sample, len(replicas))
		prompts := make([]perf.Sample, len(replicas))
		failures := make([]perf.Sample, len(replicas))
		for i, st := range replicas {
			labels := [][2]string{router, perf.Label("replica", st.Addr)}
			v := 0.0
			if st.Healthy {
				v = 1
			}
			healthy[i] = perf.Sample{Labels: labels, Value: v}
			prompts[i] = perf.Sample{Labels: labels, Value: float64(st.Prompts)}
			failures[i] = perf.Sample{Labels: labels, Value: float64(st.Failures)}
		}
		p.Emit(perf.FamRouterReplicaHealthy, healthy...)
		p.Emit(perf.FamRouterReplicaPrompts, prompts...)
		p.Emit(perf.FamRouterReplicaFailures, failures...)
		p.EmitSummaries(perf.FamRouterStageSeconds, f.rec.Snapshot(), router)
		f.proto.EmitSlowExemplars(p, router)
		// The Router implements both optional resilience sources (Retries,
		// BreakerStates), so the router exposition carries per-replica
		// breaker gauges under the same families the daemon exports.
		server.EmitResilience(p, f.cfg.Fault, f.cfg.Router, router)
	})
}
