package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// gatedLLM answers "echo:<prompt>", blocking every call on gate when
// it is non-nil; entered counts calls that reached it.
type gatedLLM struct {
	gate    chan struct{}
	entered atomic.Int64
}

func (g *gatedLLM) Complete(prompt string) string {
	g.entered.Add(1)
	if g.gate != nil {
		<-g.gate
	}
	return "echo:" + prompt
}

// wireTarget is one server side speaking the completion protocol.
type wireTarget struct {
	name string
	url  string
	// full reports that a held request occupies the whole queue.
	full func() bool
}

// wireTargets starts a daemon and a router, each admitting at most
// four in-flight prompts and hinting a 0.1s Retry-After, with their
// completions blocked on gate when it is non-nil.
func wireTargets(t *testing.T, gate chan struct{}) []wireTarget {
	t.Helper()
	const retryAfter = 100 * time.Millisecond
	llm := &gatedLLM{gate: gate}
	srv := server.New(server.Config{LLM: llm, QueueLimit: 4, RetryAfter: retryAfter, BatchMaxDelay: time.Millisecond})
	daemon := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		daemon.Close()
		srv.Close()
	})
	replica := newFakeReplica("a")
	replica.gate = gate
	f, router := startFrontend(t, FrontendConfig{ID: "r1", QueueLimit: 4, BulkLimit: 4, RetryAfter: retryAfter}, replica)
	return []wireTarget{
		{name: "daemon", url: daemon.URL, full: func() bool { return llm.entered.Load() > 0 }},
		{name: "router", url: router.URL, full: func() bool { return f.inflight.Load() == 4 }},
	}
}

// do sends one request and checks the protocol's response invariants:
// every non-2xx answer is an application/json ErrorResponse.
func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: status %d with Content-Type %q", method, url, resp.StatusCode, ct)
		}
		var e server.ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: status %d body %q is not an ErrorResponse", method, url, resp.StatusCode, raw)
		}
	}
	return resp, raw
}

// TestWireConformance: the daemon and the router answer every request
// shape of the completion protocol identically.
func TestWireConformance(t *testing.T) {
	cases := []struct {
		name, method, path, body string
		want                     int
		wantBody                 string // exact success body, when set
		wantType                 string // success Content-Type, when set
	}{
		{"get single", http.MethodGet, "/v1/complete", "", http.StatusMethodNotAllowed, "", ""},
		{"get batch", http.MethodGet, "/v1/complete_batch", "", http.StatusMethodNotAllowed, "", ""},
		{"empty prompt", http.MethodPost, "/v1/complete", `{"prompt":""}`, http.StatusBadRequest, "", ""},
		{"missing prompt", http.MethodPost, "/v1/complete", `{}`, http.StatusBadRequest, "", ""},
		{"garbage single", http.MethodPost, "/v1/complete", `{garbage`, http.StatusBadRequest, "", ""},
		{"garbage batch", http.MethodPost, "/v1/complete_batch", `{garbage`, http.StatusBadRequest, "", ""},
		{"empty batch", http.MethodPost, "/v1/complete_batch", `{"prompts":[]}`, http.StatusOK, `{"responses":[]}` + "\n", ""},
		{"missing batch", http.MethodPost, "/v1/complete_batch", `{}`, http.StatusOK, `{"responses":[]}` + "\n", ""},
		{"oversized batch", http.MethodPost, "/v1/complete_batch", `{"prompts":["a","b","c","d","e"]}`, http.StatusRequestEntityTooLarge, "", ""},
		{"single", http.MethodPost, "/v1/complete", `{"prompt":"x"}`, http.StatusOK, "", ""},
		{"batch that fits", http.MethodPost, "/v1/complete_batch", `{"prompts":["a","b","c","d"]}`, http.StatusOK, "", ""},
		{"debug traces", http.MethodGet, "/debug/traces", "", http.StatusOK, "[]\n", ""},
		{"metrics", http.MethodGet, "/metrics", "", http.StatusOK, "", "text/plain; version=0.0.4; charset=utf-8"},
	}
	for _, target := range wireTargets(t, nil) {
		for _, c := range cases {
			resp, body := do(t, c.method, target.url+c.path, c.body)
			if resp.StatusCode != c.want {
				t.Errorf("%s %s: status %d want %d (%s)", target.name, c.name, resp.StatusCode, c.want, body)
			}
			if c.wantBody != "" && string(body) != c.wantBody {
				t.Errorf("%s %s: body %q want %q", target.name, c.name, body, c.wantBody)
			}
			if ct := resp.Header.Get("Content-Type"); c.wantType != "" && ct != c.wantType {
				t.Errorf("%s %s: Content-Type %q want %q", target.name, c.name, ct, c.wantType)
			}
		}
	}
}

// TestWireConformance429: a full queue answers 429 with a parseable
// Retry-After on both sides.
func TestWireConformance429(t *testing.T) {
	gate := make(chan struct{})
	targets := wireTargets(t, gate)
	var wg sync.WaitGroup
	defer func() {
		close(gate)
		wg.Wait()
	}()
	for _, target := range targets {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/complete_batch", "application/json", strings.NewReader(`{"prompts":["h1","h2","h3","h4"]}`))
			if err == nil {
				resp.Body.Close()
			}
		}(target.url)
		for !target.full() {
			time.Sleep(time.Millisecond)
		}
		resp, body := do(t, http.MethodPost, target.url+"/v1/complete", `{"prompt":"over"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s: status %d at a full queue, want 429 (%s)", target.name, resp.StatusCode, body)
			continue
		}
		ra, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
		if err != nil || ra != 0.1 {
			t.Errorf("%s: Retry-After %q, want 0.1", target.name, resp.Header.Get("Retry-After"))
		}
	}
}
