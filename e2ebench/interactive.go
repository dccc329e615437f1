package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	llm4vv "repro"
	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/remote"
	"repro/internal/rng"
)

// interEnv is the open loop: single /v1/complete requests at
// interactive priority, sent on a seeded Poisson schedule at each
// fixed rate in turn, through the fleet with one model per replica.
// One scheduler goroutine sends every request; the client holds at
// most maxConnections connections, so requests due while both are
// busy wait for one, and that wait counts: each request is timed from
// when it was due. A closed-loop phase over the same connections then
// measures how many requests per second the fleet answers.
type interEnv struct {
	fleet   *fleetEnv
	client  *tracedLLM
	rb      *remote.Backend
	tr      *http.Transport
	seed    uint64
	prompts []string // in the seeded send order
	buildS  float64
	// want maps each prompt to its reference line; computed on first
	// use, outside any timed window.
	want map[string]string
}

func setupInteractive(ctx context.Context, seed uint64, dir string) (env, error) {
	specs := partOneSuites(seed)
	suites, buildS, err := buildSuites(specs)
	if err != nil {
		return nil, err
	}
	var prompts []string
	for i, suite := range suites {
		j := judge.Judge{Style: judge.Direct, Dialect: specs[i].Dialect}
		for _, pf := range suite {
			prompts = append(prompts, j.BuildPrompt(pf.Source, nil))
		}
	}
	order := rng.New(seed).Split("interactive/order")
	order.Shuffle(len(prompts), func(a, b int) { prompts[a], prompts[b] = prompts[b], prompts[a] })

	var seats []judge.LLM
	for i := 0; i < replicaCount; i++ {
		llm, err := llm4vv.NewBackend(benchSeat, modelSeed)
		if err != nil {
			return nil, err
		}
		seats = append(seats, llm)
	}
	f, err := startFleet(func(i int) (judge.LLM, string) { return seats[i], benchSeat })
	if err != nil {
		return nil, err
	}
	e := &interEnv{fleet: f, seed: seed, prompts: prompts, buildS: buildS}
	var hc *http.Client
	hc, e.tr = httpClient(maxConnections)
	e.rb = remote.New(f.Addr, remote.WithPriority(remote.PriorityInteractive), remote.WithHTTPClient(hc))
	e.client = &tracedLLM{layer: layerRemote, inner: e.rb}
	// Warm up before timing: open both connections and let the heap
	// reach its working size.
	var wg sync.WaitGroup
	errs := make([]error, maxConnections)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := i; k < warmupRequests && errs[i] == nil; k += len(errs) {
				_, errs[i] = e.client.CompleteContext(ctx, prompts[k%len(prompts)])
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// warmupRequests are sent closed-loop during set-up.
const warmupRequests = 256

func (e *interEnv) close() {
	e.fleet.close()
	if e.tr != nil {
		e.tr.CloseIdleConnections()
	}
}

// schedule returns each rate's arrival offsets: n requests per rate,
// n chosen so the whole ladder lasts about d, but at least
// minRequestsPerRate and enough to send every prompt once.
func (e *interEnv) schedule(d time.Duration) [][]time.Duration {
	var perRequest float64
	for _, r := range ladder {
		perRequest += 1 / r.rps
	}
	n := int(d.Seconds() / perRequest)
	n = max(n, minRequestsPerRate, (len(e.prompts)+len(ladder)-1)/len(ladder))
	src := rng.New(e.seed).Split("interactive/arrivals")
	out := make([][]time.Duration, len(ladder))
	for i, r := range ladder {
		var t float64
		for k := 0; k < n; k++ {
			t += -math.Log(1-src.Float64()) / r.rps
			out[i] = append(out[i], time.Duration(t*float64(time.Second)))
		}
	}
	return out
}

// sent is one request's fate.
type sent struct {
	prompt string
	lat    time.Duration
	resp   string
	err    error
}

// ladderShare is the part of the measured time the rate ladder gets;
// the closed-loop phase gets the rest.
const ladderShare = 0.75

// saturationWindows is how many equal windows the closed-loop phase is
// cut into; files_per_s is the median window's rate.
const saturationWindows = 8

func (e *interEnv) measure(ctx context.Context, d time.Duration, traced bool) (*measurement, error) {
	m := &measurement{layer: map[string]float64{"corpus.build_s": e.buildS}}
	before, retries := e.fleet.counts(), e.rb.Retries()
	var lags, all []time.Duration
	var answers []sent
	k := 0
	var cpu time.Duration
	resetPeakRSS()
	a0 := allocated()
	for i, offs := range e.schedule(time.Duration(ladderShare * float64(d))) {
		r := ladder[i]
		res := make([]sent, len(offs))
		var wg sync.WaitGroup
		c0 := cpuTime()
		start := time.Now()
		for j, off := range offs {
			due := start.Add(off)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			lags = append(lags, time.Since(due))
			wg.Add(1)
			go func(j int, due time.Time) {
				defer wg.Done()
				res[j] = e.send(ctx, k+j, due)
			}(j, due)
		}
		wg.Wait()
		cpu += cpuTime() - c0
		k += len(offs)
		var lat []time.Duration
		failed := 0
		for _, s := range res {
			if s.err != nil {
				failed++
				continue
			}
			lat = append(lat, s.lat)
		}
		answers = append(answers, res...)
		all = append(all, lat...)
		p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
		m.layer["loadgen.lat_p50_ms."+r.name] = ms(p50)
		m.layer["loadgen.lat_p99_ms."+r.name] = ms(p99)
		// A refused or failed request misses the limit; a growing
		// backlog drives p99 past it.
		if failed == 0 && p99 <= latencyLimit {
			m.layer["loadgen.max_rate_rps"] = r.rps
		}
		if r.name == "mid" {
			m.latP50, m.latP99 = p50, p99
		}
	}
	c0 := cpuTime()
	sat, perSec := e.saturate(ctx, k, d-time.Duration(ladderShare*float64(d)))
	cpu += cpuTime() - c0
	answers = append(answers, sat...)
	m.allocBytes = allocated() - a0
	m.rss = []float64{peakRSSMB()}
	m.perSec = perSec
	for _, s := range answers {
		m.ops++
		if s.err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "e2ebench: request failed: %v\n", s.err)
		}
	}
	m.outcomes = []outcome{e.outcome(answers)}
	m.layer["loadgen.lag_p99_ms"] = ms(quantile(lags, 0.99))
	for k, v := range e.fleet.counts().metrics(before) {
		m.layer[k] = v
	}
	m.layer["remote.retries"] = float64(e.rb.Retries() - retries)
	m.slowdown = quantile(all, 0.50).Seconds()
	// The CPU time covers the ladder's rates and the closed loop, the
	// load generator's own small share included.
	m.cpuMS = ms(cpu) / float64(max(m.ops, 1))
	return m, nil
}

// send sends the k-th prompt of the send order, timed from due.
func (e *interEnv) send(ctx context.Context, k int, due time.Time) sent {
	p := e.prompts[k%len(e.prompts)]
	resp, err := e.client.CompleteContext(ctx, p)
	return sent{prompt: p, lat: time.Since(due), resp: resp, err: err}
}

// saturate sends closed-loop from maxConnections callers for d,
// continuing the send order from k, and returns what was sent and the
// answered requests per second of the median of saturationWindows
// equal windows.
func (e *interEnv) saturate(ctx context.Context, k int, d time.Duration) ([]sent, float64) {
	var next atomic.Int64
	next.Store(int64(k))
	window := d / saturationWindows
	counts := make([][saturationWindows]int, maxConnections)
	res := make([][]sent, maxConnections)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range res {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Now()
				if now.Sub(start) >= d {
					return
				}
				s := e.send(ctx, int(next.Add(1)-1), now)
				res[c] = append(res[c], s)
				if w := int(time.Since(start) / window); s.err == nil && w < saturationWindows {
					counts[c][w]++
				}
			}
		}(c)
	}
	wg.Wait()
	var out []sent
	rps := make([]float64, saturationWindows)
	for c := range res {
		out = append(out, res[c]...)
		for w, n := range counts[c] {
			rps[w] += float64(n) / window.Seconds()
		}
	}
	return out, median(rps)
}

// responseLine is one prompt's verdict and response fingerprint.
func responseLine(prompt, resp string) string {
	key := judge.KeyOf(prompt)
	sum := sha256.Sum256([]byte(resp))
	return fmt.Sprintf("%s|%s|%s", hex.EncodeToString(key[:8]), judge.ParseVerdict(resp), hex.EncodeToString(sum[:8]))
}

// outcome digests the answers. A refused request is a performance
// result, not a wrong output, so a prompt that no request got an
// answer for contributes its reference line: the digest matches the
// reference exactly when every answered request was answered right.
func (e *interEnv) outcome(answers []sent) outcome {
	seen := map[string]bool{}
	answered := map[string]bool{}
	var lines []string
	add := func(line string) {
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	for _, s := range answers {
		if s.err == nil {
			answered[s.prompt] = true
			add(responseLine(s.prompt, s.resp))
		}
	}
	for _, p := range e.prompts {
		if !answered[p] {
			add(e.reference1(p))
		}
	}
	return newOutcome(lines, nil)
}

// reference1 returns a prompt's reference line, answering every prompt
// with the model in process on first use.
func (e *interEnv) reference1(prompt string) string {
	if e.want == nil {
		m := model.New(modelSeed)
		e.want = map[string]string{}
		for _, p := range e.prompts {
			e.want[p] = responseLine(p, m.Complete(p))
		}
	}
	return e.want[prompt]
}

// reference answers every prompt with the model in process.
func (e *interEnv) reference(ctx context.Context) ([]outcome, error) {
	return []outcome{e.outcome(nil)}, nil
}
