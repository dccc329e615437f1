package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	llm4vv "repro"
	"repro/internal/metrics"
	"repro/internal/rng"
)

//go:embed expected.json
var expectedJSON []byte

// The benchmark's fixed settings. plan.json records where the
// interactive ones came from (the calibration at the parent commit).
const (
	// defaultSeed keeps the paper's suite seeds; expected.json pins its
	// digests and tables.
	defaultSeed = 1
	// heldOutSeed is never used while tuning a change; expected.json
	// pins its digests.
	heldOutSeed = 7919
	// setupRepeats is how many times a run sets up; setup_s is the
	// median.
	setupRepeats = 3

	// latencyLimit is the p99 an interactive rate must meet to count
	// towards loadgen.max_rate_rps.
	latencyLimit = 40 * time.Millisecond
	// minRequestsPerRate leaves at least 10 samples beyond each rate's
	// p99.
	minRequestsPerRate = 1000
	// maxConnections caps the interactive client's connections (nproc
	// on the calibration machine).
	maxConnections = 2
)

// rate is one fixed arrival rate of the interactive ladder.
type rate struct {
	name string
	rps  float64
}

// ladder is the interactive rate ladder: low and mid on the flat part
// of the latency curve, high at the last rate the fleet kept up with.
var ladder = []rate{{"low", 100}, {"mid", 250}, {"high", 400}}

// outcome is what a workload's outputs reduce to: a digest over its
// per-file verdicts (and panel votes), plus the headline tables in
// readable form.
type outcome struct {
	Digest string            `json:"digest"`
	Tables map[string]string `json:"tables,omitempty"`
	// part says which of the workload's input sets the outcome is of:
	// part2-sweep takes part2Suites OpenACC suites in turn; the other
	// workloads have one.
	part int
}

// diff describes how o differs from want ("" when it matches). Tables
// missing from want are not compared.
func (o outcome) diff(want outcome) string {
	var d []string
	keys := make([]string, 0, len(want.Tables))
	for k := range want.Tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if o.Tables[k] != want.Tables[k] {
			d = append(d, fmt.Sprintf("table %s = %q, want %q", k, o.Tables[k], want.Tables[k]))
		}
	}
	if o.Digest != want.Digest {
		d = append(d, fmt.Sprintf("digest %s, want %s", o.Digest, want.Digest))
	}
	return strings.Join(d, "; ")
}

// newOutcome digests lines (sorted first, so the digest ignores
// completion order) together with the tables.
func newOutcome(lines []string, tables map[string]string) outcome {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	keys := make([]string, 0, len(tables))
	for k := range tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, tables[k])
	}
	return outcome{Digest: hex.EncodeToString(h.Sum(nil)), Tables: tables}
}

// expected returns the committed outcomes, one per part, for
// (workload, seed), or nil when the seed has none and the outcomes
// must be computed.
func expected(workload string, seed uint64) ([]outcome, error) {
	var all map[string]map[string][]outcome
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return all[workload][strconv.FormatUint(seed, 10)], nil
}

// summaryText renders a scored summary: accuracy, bias and the
// per-issue counts behind Tables IV-IX.
func summaryText(s metrics.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "acc=%.4f bias=%+.4f mistakes=%d/%d issues=", s.Accuracy(), s.Bias(), s.Mistakes, s.Total)
	for i, p := range s.PerIssue {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d/%d", p.Correct, p.Count)
	}
	return b.String()
}

// suiteFor derives the part-th suite of a kind from the workload seed.
// Part 0 of the default seed keeps the paper's suite seed, so its
// tables are the published configuration; every other (seed, part)
// draws a fresh suite seed.
func suiteFor(s llm4vv.SuiteSpec, seed uint64, part int) llm4vv.SuiteSpec {
	if seed == defaultSeed && part == 0 {
		return s
	}
	label := fmt.Sprintf("suite/%v/%x", s.Dialect, s.Seed)
	if part > 0 {
		label += fmt.Sprintf("/%d", part)
	}
	s.Seed = rng.New(seed).Split(label).Uint64()
	return s
}
