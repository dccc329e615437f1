package main

import (
	"bytes"
	"testing"
	"time"
)

func span(id, parent uint64, name string, start, end int64, links ...uint64) Span {
	return Span{ID: id, Parent: parent, Links: links, Name: name, Start: start, End: end}
}

func wantSelf(t *testing.T, st map[string]LayerStat, name string, self int64, calls int) {
	t.Helper()
	got := st[name]
	if got.Self != time.Duration(self) || got.Calls != calls {
		t.Errorf("%s: self %d calls %d, want self %d calls %d", name, got.Self, got.Calls, self, calls)
	}
}

func TestSelfTimeNested(t *testing.T) {
	st := selfTimes([]Span{
		span(1, 0, "runner", 0, 100),
		span(2, 1, "remote", 10, 60),
		span(3, 2, "server", 20, 50),
		span(4, 3, "model", 25, 35),
	})
	wantSelf(t, st, "runner", 50, 1)
	wantSelf(t, st, "remote", 20, 1)
	wantSelf(t, st, "server", 20, 1)
	wantSelf(t, st, "model", 10, 1)
}

// Concurrent fan-out children overlap; their union is subtracted once.
func TestSelfTimeOverlappingFanOut(t *testing.T) {
	st := selfTimes([]Span{
		span(1, 0, "ensemble", 0, 100),
		span(2, 1, "model", 10, 60),
		span(3, 1, "model", 20, 80),
		span(4, 1, "model", 30, 50),
	})
	wantSelf(t, st, "ensemble", 30, 1) // 100 - |[10,80]|
	wantSelf(t, st, "model", 50+60+20, 3)
}

// Sibling spans running at the same time each lose only their own
// children's time, never a sibling's.
func TestSelfTimeSiblingConcurrent(t *testing.T) {
	st := selfTimes([]Span{
		span(1, 0, "server", 0, 100),
		span(2, 0, "server", 0, 100),
		span(3, 1, "model", 0, 40),
		span(4, 2, "model", 50, 60),
	})
	wantSelf(t, st, "server", 60+90, 2)
	wantSelf(t, st, "model", 50, 2)
}

// A child reaching outside its parent is clipped to the parent; a span
// whose parent was never recorded is a root.
func TestSelfTimeClippedAndOrphan(t *testing.T) {
	st := selfTimes([]Span{
		span(1, 0, "remote", 0, 50),
		span(2, 1, "fleet.frontend", 40, 70),
		span(3, 99, "server", 0, 10),
	})
	wantSelf(t, st, "remote", 40, 1)
	wantSelf(t, st, "fleet.frontend", 30, 1)
	wantSelf(t, st, "server", 10, 1)
}

// An endpoint call serving several waiting requests (a micro-batch) is
// a child of each: every request's span loses the shared interval.
func TestSelfTimeLinkedChild(t *testing.T) {
	st := selfTimes([]Span{
		span(1, 0, "server", 0, 30),
		span(2, 0, "server", 5, 30),
		span(3, 1, "model", 20, 28, 2),
	})
	wantSelf(t, st, "server", 22+17, 2)
	wantSelf(t, st, "model", 8, 1)
}

func TestQuantileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	if p50, p99 := quantile(ds, 0.5), quantile(ds, 0.99); p50 != 50 || p99 != 99 {
		t.Errorf("p50 %d p99 %d, want 50 99", p50, p99)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	in := []Span{span(1, 0, "runner", 0, 100), span(2, 1, "model", 10, 20, 7, 8)}
	var buf bytes.Buffer
	if err := writeSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1].Name != "model" || len(out[1].Links) != 2 || out[1].Parent != 1 {
		t.Fatalf("round trip: %+v", out)
	}
}
