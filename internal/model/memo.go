package model

import (
	"crypto/sha256"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/spec"
)

// featureMemoCap bounds the shared feature memo. Panel seats judging
// one shard ask for the same files within a shard's width of each
// other (Runner shards hold at most 64 files), so 256 entries cover
// their drift; a Part-One sweep holds 1766 distinct files, so no
// entry survives from one sweep into the next. It is a constant, not
// a knob: the memo only has to span concurrent seats, and its memory
// stays fixed whatever the workload.
const featureMemoCap = 256

// featureKey is the SHA-256 of (dialect, code). Like judge.PromptKey
// it is a fixed 32 bytes, so no source text is kept alive per entry.
type featureKey [sha256.Size]byte

func featureKeyOf(d spec.Dialect, code string) featureKey {
	h := sha256.New()
	h.Write([]byte{byte(d)})
	h.Write([]byte(code))
	var k featureKey
	h.Sum(k[:0])
	return k
}

// featureCall is one extraction: waiters block on done, then read ft
// when ok. ok stays false when the extraction panicked.
type featureCall struct {
	done chan struct{}
	ft   Features
	ok   bool
}

// featureMemo shares feature extraction between callers that judge
// the same code concurrently — the seats of a panel, which all
// receive one prompt and differ only in their sampling seed. Features
// depend on nothing but (dialect, code), so the first caller to miss
// extracts and later callers wait for its result (single flight).
// Entries are evicted in insertion order once featureMemoCap are
// held. Features are plain values; every caller gets its own copy.
type featureMemo struct {
	extract func(code string, d spec.Dialect) Features

	mu      sync.Mutex
	entries map[featureKey]*featureCall
	// ring records insertion order; ring[next] is the oldest slot and
	// the next to be overwritten.
	ring [featureMemoCap]struct {
		key  featureKey
		call *featureCall
	}
	next int

	// extractions counts extract calls (tests read it).
	extractions atomic.Int64
}

func newFeatureMemo(extract func(code string, d spec.Dialect) Features) *featureMemo {
	return &featureMemo{extract: extract, entries: make(map[featureKey]*featureCall, featureMemoCap)}
}

// sharedFeatures is the process-wide memo every Model judges through.
var sharedFeatures = newFeatureMemo(func(code string, d spec.Dialect) Features {
	return ExtractFeatures(code, d, sharedNGram)
})

// get returns ExtractFeatures(code, d) for the shared n-gram,
// extracting at most once while the key stays resident. If the
// extracting caller panics, its key is dropped and its waiters retry,
// so a panic is never cached and never strands a waiter.
func (m *featureMemo) get(code string, d spec.Dialect) Features {
	key := featureKeyOf(d, code)
	for {
		m.mu.Lock()
		c, hit := m.entries[key]
		if !hit {
			c = &featureCall{done: make(chan struct{})}
			m.insert(key, c)
		}
		m.mu.Unlock()
		if !hit {
			return m.run(key, c, code, d)
		}
		<-c.done
		if c.ok {
			return c.ft
		}
	}
}

// insert adds c under key, evicting the oldest entry when the ring is
// full. An entry already dropped or replaced under its key is left
// alone.
func (m *featureMemo) insert(key featureKey, c *featureCall) {
	old := &m.ring[m.next]
	if old.call != nil && m.entries[old.key] == old.call {
		delete(m.entries, old.key)
	}
	old.key, old.call = key, c
	m.next = (m.next + 1) % featureMemoCap
	m.entries[key] = c
}

// run extracts for the caller that inserted c and releases c's
// waiters, also when the extraction panics.
func (m *featureMemo) run(key featureKey, c *featureCall, code string, d spec.Dialect) Features {
	defer func() {
		if !c.ok {
			m.mu.Lock()
			if m.entries[key] == c {
				delete(m.entries, key)
			}
			m.mu.Unlock()
		}
		close(c.done)
	}()
	m.extractions.Add(1)
	ft := m.extract(code, d)
	// The names may be substrings of code; copy them so a resident
	// entry does not pin the source text.
	ft.FirstUnknown = strings.Clone(ft.FirstUnknown)
	ft.FirstUndeclared = strings.Clone(ft.FirstUndeclared)
	c.ft, c.ok = ft, true
	return ft
}
