package model

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
)

// size reports how many entries the memo holds.
func (m *featureMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// countingMemo returns a memo over the real extraction whose calls
// first block on gate (when non-nil).
func countingMemo(gate chan struct{}) *featureMemo {
	return newFeatureMemo(func(code string, d spec.Dialect) Features {
		if gate != nil {
			<-gate
		}
		return ExtractFeatures(code, d, sharedNGram)
	})
}

// waitBlocked waits until n goroutines are blocked in featureMemo.get
// on another caller's extraction.
func waitBlocked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		blocked := 0
		for _, g := range strings.Split(stacks, "\n\n") {
			// The header names the wait; the next line is the
			// innermost frame, so the extracting caller (blocked
			// deeper, inside extract) is not counted.
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) > 1 && strings.Contains(lines[0], "[chan receive") && strings.Contains(lines[1], "(*featureMemo).get(") {
				blocked++
			}
		}
		if blocked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers blocked on the extraction", blocked, n)
		}
		runtime.Gosched()
	}
}

// TestFeatureMemoMatchesExtraction: the shared memo answers exactly
// what direct extraction does for every generated source, on a miss
// and on a hit.
func TestFeatureMemoMatchesExtraction(t *testing.T) {
	for i, g := range generatedSources() {
		want := ExtractFeatures(g.src, g.dialect, sharedNGram)
		for pass := 0; pass < 2; pass++ {
			if got := sharedFeatures.get(g.src, g.dialect); got != want {
				t.Fatalf("source %d (%v) pass %d: memo %+v, direct %+v", i, g.dialect, pass, got, want)
			}
		}
	}
}

// TestFeatureMemoKeysOnDialect: one code judged as two dialects is
// two entries with their own features.
func TestFeatureMemoKeysOnDialect(t *testing.T) {
	m := countingMemo(nil)
	acc := m.get(validTestCode, spec.OpenACC)
	omp := m.get(validTestCode, spec.OpenMP)
	if acc.Dialect != spec.OpenACC || omp.Dialect != spec.OpenMP || acc == omp {
		t.Fatalf("dialects share an entry: %+v / %+v", acc, omp)
	}
	if n := m.extractions.Load(); n != 2 {
		t.Fatalf("extractions = %d, want 2", n)
	}
}

// TestFeatureMemoSingleFlight: 16 goroutines asking for one code while
// its extraction is held open share that one extraction.
func TestFeatureMemoSingleFlight(t *testing.T) {
	gate := make(chan struct{})
	m := countingMemo(gate)
	want := ExtractFeatures(validTestCode, spec.OpenACC, sharedNGram)
	var wg sync.WaitGroup
	got := make([]Features, 16)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.get(validTestCode, spec.OpenACC)
		}()
	}
	waitBlocked(t, len(got)-1)
	close(gate)
	wg.Wait()
	if n := m.extractions.Load(); n != 1 {
		t.Fatalf("extractions = %d, want 1", n)
	}
	for i, ft := range got {
		if ft != want {
			t.Fatalf("goroutine %d: %+v, want %+v", i, ft, want)
		}
	}
}

// TestFeatureMemoBoundedFIFO: past capacity the memo holds at most
// featureMemoCap entries, evicting the oldest first.
func TestFeatureMemoBoundedFIFO(t *testing.T) {
	m := countingMemo(nil)
	code := func(i int) string { return "int x" + strconv.Itoa(i) + ";\n" }
	const extra = 40
	for i := 0; i < featureMemoCap+extra; i++ {
		m.get(code(i), spec.OpenMP)
		if n := m.size(); n > featureMemoCap {
			t.Fatalf("after %d keys the memo holds %d entries, cap %d", i+1, n, featureMemoCap)
		}
	}
	if n := m.size(); n != featureMemoCap {
		t.Fatalf("memo holds %d entries, want %d", n, featureMemoCap)
	}
	before := m.extractions.Load()
	m.get(code(featureMemoCap+extra-1), spec.OpenMP)
	if m.extractions.Load() != before {
		t.Fatal("the newest key was evicted")
	}
	m.get(code(0), spec.OpenMP)
	if m.extractions.Load() != before+1 {
		t.Fatal("the oldest key was still resident")
	}
}

// TestFeatureMemoPanicReleasesWaiters: an extraction that panics
// propagates to its own caller, releases every waiter, and leaves the
// key computable: a waiter extracts it again and later callers hit.
func TestFeatureMemoPanicReleasesWaiters(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var calls atomic.Int64
	m := newFeatureMemo(func(code string, d spec.Dialect) Features {
		if calls.Add(1) == 1 {
			close(entered)
			<-gate
			panic("extraction failed")
		}
		return ExtractFeatures(code, d, sharedNGram)
	})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		m.get(validTestCode, spec.OpenACC)
	}()
	<-entered
	want := ExtractFeatures(validTestCode, spec.OpenACC, sharedNGram)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := m.get(validTestCode, spec.OpenACC); got != want {
				t.Errorf("waiter got %+v, want %+v", got, want)
			}
		}()
	}
	waitBlocked(t, 8)
	close(gate)
	if r := <-recovered; r == nil {
		t.Fatal("the extracting caller did not see its panic")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters stranded after a panicking extraction")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("extract ran %d times, want 2 (the panic, then one retry)", n)
	}
	if got := m.get(validTestCode, spec.OpenACC); got != want || calls.Load() != 2 {
		t.Fatalf("the recomputed key is not resident: %+v after %d extractions", got, calls.Load())
	}
}
