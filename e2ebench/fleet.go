package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/judge"
	"repro/internal/remote"
	"repro/internal/server"
)

// replicaCount is the fleet size every fleet workload runs.
const replicaCount = 2

// loopback is one HTTP server on a loopback listener.
type loopback struct {
	hs   *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed after shutdown
	}()
	return lb, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (lb *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lb.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = lb.hs.Close() // connections did not drain; force them
	}
	<-lb.done
}

// fleetEnv is the serving tier in one process: two server.New replicas
// behind a fleet.Router and its fleet.Frontend, each on a loopback
// listener, every HTTP face wrapped in benchmark middleware and every
// replica dialled through a traced fleet.Client.
type fleetEnv struct {
	servers    []*server.Server
	replicas   []*loopback
	router     *fleet.Router
	front      *fleet.Frontend
	frontLB    *loopback
	transports []*http.Transport
	// Addr is the frontend's address — what clients dial.
	Addr string
}

// startFleet starts the fleet. endpoint builds replica i's fronted
// endpoint and the backend name it reports.
func startFleet(endpoint func(i int) (judge.LLM, string)) (*fleetEnv, error) {
	f := &fleetEnv{}
	waits := newWaitlist()
	var reps []fleet.Replica
	for i := 0; i < replicaCount; i++ {
		llm, name := endpoint(i)
		if t, ok := llm.(*tracedLLM); ok {
			t.waits = waits
		}
		srv := server.New(server.Config{LLM: llm, Backend: name, Seed: modelSeed, ReplicaID: fmt.Sprintf("replica-%d", i)})
		f.servers = append(f.servers, srv)
		lb, err := listen(middleware(layerServer, srv.Handler(), waits))
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, lb)
		hc, tr := httpClient(0)
		f.transports = append(f.transports, tr)
		rb := remote.New(lb.addr, remote.WithRetries(1), remote.WithHTTPClient(hc))
		reps = append(reps, fleet.Replica{Addr: lb.addr, Client: &replicaClient{tracedLLM{layer: layerReplica, inner: rb}, rb}})
	}
	rt, err := fleet.NewRouter(fleet.Config{Replicas: reps})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.front = fleet.NewFrontend(fleet.FrontendConfig{Router: rt, ID: "router"})
	lb, err := listen(middleware(layerFrontend, f.front.Handler(), nil))
	if err != nil {
		f.close()
		return nil, err
	}
	f.frontLB, f.Addr = lb, lb.addr
	return f, nil
}

// close stops every tier, front to back, and waits for each to end.
func (f *fleetEnv) close() {
	if f.frontLB != nil {
		f.frontLB.stop()
	}
	if f.router != nil {
		f.router.Close()
	}
	var wg sync.WaitGroup
	for _, lb := range f.replicas {
		wg.Add(1)
		go func(lb *loopback) {
			defer wg.Done()
			lb.stop()
		}(lb)
	}
	wg.Wait()
	for _, s := range f.servers {
		s.Close()
	}
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
}

// fleetCounts is a snapshot of the serving tiers' public counters.
type fleetCounts struct {
	routed, spills, shed                     int64
	endpointCalls, endpointPrompts           int64
	coalesced, rejected, gatherDelayNSSummed int64
}

func (f *fleetEnv) counts() fleetCounts {
	rs, fs := f.router.Stats(), f.front.Stats()
	c := fleetCounts{routed: rs.RoutedPrompts, spills: rs.Spills, shed: fs.ShedInteractive + fs.ShedBulk + fs.QuotaRejected}
	for _, s := range f.servers {
		st := s.Stats()
		c.endpointCalls += st.EndpointCalls
		c.endpointPrompts += st.EndpointPrompts
		c.coalesced += st.Coalesced
		c.rejected += st.Rejected
		c.gatherDelayNSSummed += st.GatherDelayNS
	}
	return c
}

// metrics reports the counters accumulated since before. The gather
// delay is the replicas' mean adaptive delay at the end.
func (c fleetCounts) metrics(before fleetCounts) map[string]float64 {
	calls := c.endpointCalls - before.endpointCalls
	perCall := 0.0
	if calls > 0 {
		perCall = float64(c.endpointPrompts-before.endpointPrompts) / float64(calls)
	}
	return map[string]float64{
		"fleet.routed_prompts":    float64(c.routed - before.routed),
		"fleet.spills":            float64(c.spills - before.spills),
		"fleet.shed":              float64(c.shed - before.shed),
		"server.prompts_per_call": perCall,
		"server.coalesced":        float64(c.coalesced - before.coalesced),
		"server.rejected":         float64(c.rejected - before.rejected),
		"server.gather_delay_us":  float64(c.gatherDelayNSSummed) / replicaCount / 1e3,
	}
}
