package fleet

// Wire types of the router daemon's own endpoints. The completion
// endpoints are the daemon's own handlers and bodies (server.Protocol)
// — the router is wire-compatible with a daemon, which is why a remote
// client cannot tell (and need not care) whether -serve-addr points at
// a replica or a router.

// RouterStats are the routing counters, exposed by Router.Stats, the
// router /healthz, and /metrics.
type RouterStats struct {
	// Requests counts single-prompt routing requests.
	Requests int64 `json:"requests"`
	// BatchRequests counts batch routing requests.
	BatchRequests int64 `json:"batch_requests"`
	// RoutedPrompts counts prompts delivered to replicas successfully.
	RoutedPrompts int64 `json:"routed_prompts"`
	// Failovers counts replica attempts that failed and moved a
	// request to the key's next ring successor.
	Failovers int64 `json:"failovers"`
	// Spills counts bounded-load placements: keys routed past an
	// over-loaded owner to a later successor.
	Spills int64 `json:"spills"`
}

// ReplicaStatus is one fleet member as the router sees it.
type ReplicaStatus struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Inflight int64  `json:"inflight"`
	// Prompts counts prompts this replica answered.
	Prompts  int64 `json:"prompts"`
	Failures int64 `json:"failures"`
	// Breaker is the replica's circuit-breaker state ("closed",
	// "half-open", "open"); BreakerTrips counts how many times it has
	// tripped.
	Breaker      string `json:"breaker"`
	BreakerTrips uint64 `json:"breaker_trips"`
}

// FrontendStats are the admission-layer counters, exposed by
// Frontend.Stats, /healthz, and /metrics.
type FrontendStats struct {
	// Admitted counts prompts admitted, by priority class.
	AdmittedInteractive int64 `json:"admitted_interactive"`
	AdmittedBulk        int64 `json:"admitted_bulk"`
	// Shed counts requests refused with 429 at the class ceilings;
	// bulk sheds first by construction (its ceiling is lower).
	ShedInteractive int64 `json:"shed_interactive"`
	ShedBulk        int64 `json:"shed_bulk"`
	// QuotaRejected counts requests refused for exceeding their
	// client's in-flight quota.
	QuotaRejected int64 `json:"quota_rejected"`
}

// HealthResponse is the body of the router's GET /healthz: overall
// liveness (true while at least one replica is healthy), the instance
// ID, per-replica status, and both stat blocks.
type HealthResponse struct {
	OK       bool            `json:"ok"`
	RouterID string          `json:"router_id,omitempty"`
	Replicas []ReplicaStatus `json:"replicas"`
	Routing  RouterStats     `json:"routing"`
	Serving  FrontendStats   `json:"serving"`
}
