// Command e2ebench is the repository's end-to-end benchmark. One
// process builds a workload from a seed, runs every tier it needs in
// process — the Runner, a fleet.Frontend and fleet.Router on loopback
// listeners, two server.New replicas — measures it with tracing off,
// checks its outputs, and prints one JSON result line:
//
//	e2ebench --workload part2-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it measures half the time untraced and half traced,
// writes the traced spans as JSONL under .bench_build/ and prints the
// per-layer metrics (self time per layer, public counters, tracing
// overhead) instead of the end-to-end ones. --selftime FILE aggregates
// a span JSONL file written earlier. plan.json documents each
// workload's purpose, the interactive calibration and the layer →
// metric predictions; expected.json holds the committed outcome
// digests.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors the first set-up sample, which runs from
// process start to the first timed operation.
var processStart = time.Now()

// workDir holds span files and per-run stores, inside the checkout.
const workDir = ".bench_build"

// env is one set-up workload, ready to measure.
type env interface {
	// measure runs the workload for about d, with benchmark tracing
	// on or off.
	measure(ctx context.Context, d time.Duration, traced bool) (*measurement, error)
	// reference computes the expected outcome of each part (see
	// outcome.part) outside any timed window, by a path that shares no
	// state with measure.
	reference(ctx context.Context) ([]outcome, error)
	close()
}

// workload builds an env from a seed. Set-up covers everything before
// the first timed operation; its duration is setup_s.
type workload struct {
	name  string
	setup func(ctx context.Context, seed uint64, dir string) (env, error)
}

var workloads = []workload{
	{"part2-sweep", setupPart2},
	{"panel-fleet", setupPanel},
	{"interactive-fleet", setupInteractive},
}

// measurement is what one measure call saw.
type measurement struct {
	ops    int           // files swept or requests sent
	failed int           // of ops
	busy   time.Duration // timed wall time of the sweeps
	// perSec is the measured rate: files per second in the sweeps,
	// answered requests per second of interactive-fleet's closed-loop
	// phase.
	perSec float64
	// latP50 and latP99 are per-file latency percentiles: of verdict
	// times from the start of the sweep (the median sweep's), or of
	// mid-rate request times from when each request was due.
	latP50, latP99 time.Duration
	// sweepP50 and sweepP99 hold each sweep's verdict-time percentiles
	// in seconds, sweepCPU its CPU milliseconds per file and sweepPart
	// the part it swept.
	sweepP50, sweepP99, sweepCPU []float64
	sweepPart                    []int
	// cpuMS is the process's CPU time (user and system, every tier) in
	// milliseconds per op.
	cpuMS      float64
	allocBytes uint64
	// rss holds peak resident set sizes in MB: one per sweep, or one
	// for the whole open loop.
	rss []float64
	// outcomes holds one outcome per completed sweep (or run).
	outcomes []outcome
	// layer holds workload-specific per-layer metrics.
	layer map[string]float64
	// slowdown compares against an untraced measurement: the
	// workload's headline figure, larger is slower.
	slowdown float64
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: part2-sweep, panel-fleet or interactive-fleet")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed: suite seeds and the open-loop schedule (%d keeps the paper's suites; %d is held out)", defaultSeed, heldOutSeed))
	seconds := flag.Float64("seconds", 20, "measured time")
	traceOn := flag.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	record := flag.Bool("record", false, "print the reference outcomes as JSON and exit (for expected.json)")
	selftime := flag.String("selftime", "", "aggregate a span JSONL file and exit")
	flag.Parse()
	if *selftime != "" {
		if err := printSelfTimes(*selftime); err != nil {
			fail(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if err := run(*w, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, *record); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

func run(w workload, seed uint64, d time.Duration, traced, record bool) error {
	ctx := context.Background()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if record {
		e, err := w.setup(ctx, seed, dir)
		if err != nil {
			return err
		}
		defer e.close()
		o, err := e.reference(ctx)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(o)
	}

	// Set up several times and keep the last; setup_s is the median.
	var e env
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		ek, err := w.setup(ctx, seed, filepath.Join(dir, fmt.Sprintf("setup-%d", k)))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if e != nil {
			e.close()
		}
		e = ek
	}
	defer e.close()

	res := result{Metrics: map[string]metric{}}
	var m, base *measurement
	if !traced {
		if m, err = e.measure(ctx, d, false); err != nil {
			return err
		}
		printE2E(res.Metrics, m, median(setups))
	} else {
		base, err = e.measure(ctx, d/2, false)
		if err != nil {
			return err
		}
		rec.reset()
		rec.on.Store(true)
		m, err = e.measure(ctx, d/2, true)
		rec.on.Store(false)
		if err != nil {
			return err
		}
		spans := rec.snapshot()
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		if err := saveSpans(path, spans); err != nil {
			return err
		}
		printLayers(res.Metrics, base, m, selfTimes(spans))
	}
	res.Attempted, res.Failed = m.ops, m.failed
	if base != nil {
		res.Attempted += base.ops
		res.Failed += base.failed
		m.outcomes = append(m.outcomes, base.outcomes...)
	}

	want, err := expected(w.name, seed)
	if err != nil {
		return err
	}
	if want == nil {
		if want, err = e.reference(ctx); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	// Failed operations are reported, not judged: only a wrong output
	// makes a run incorrect.
	res.Correct = len(m.outcomes) > 0
	for _, got := range m.outcomes {
		diff := fmt.Sprintf("part %d has no expected outcome", got.part)
		if got.part < len(want) {
			diff = got.diff(want[got.part])
		}
		if diff != "" {
			fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: output mismatch: %s\n", w.name, seed, diff)
			res.Correct = false
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%s seed %d: outputs incorrect", w.name, seed)
	}
	return nil
}

// printE2E fills the end-to-end metrics every workload reports.
func printE2E(out map[string]metric, m *measurement, setup float64) {
	out["setup_s"] = metric{setup, "s"}
	out["cpu_ms_per_op"] = metric{m.cpuMS, "ms"}
	out["peak_rss_mb"] = metric{median(m.rss), "MB"}
	out["alloc_kb_per_op"] = metric{float64(m.allocBytes) / 1024 / float64(max(m.ops, 1)), "KB"}
}

// perLayerCounters are the per-layer metrics that are not span
// aggregates; workloads that lack the layer report 0.
var perLayerCounters = []struct{ name, unit string }{
	{"fleet.routed_prompts", "count"},
	{"fleet.spills", "count"},
	{"fleet.shed", "count"},
	{"remote.retries", "count"},
	{"server.prompts_per_call", "count"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"server.gather_delay_us", "us"},
	{"store.resumed_files", "count"},
	{"store.records", "count"},
	{"store.segments", "count"},
	{"corpus.build_s", "s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.lat_p50_ms.low", "ms"},
	{"loadgen.lat_p50_ms.mid", "ms"},
	{"loadgen.lat_p50_ms.high", "ms"},
	{"loadgen.lat_p99_ms.low", "ms"},
	{"loadgen.lat_p99_ms.mid", "ms"},
	{"loadgen.lat_p99_ms.high", "ms"},
	{"loadgen.max_rate_rps", "1/s"},
}

// printLayers fills the per-layer metrics: spans and counters from the
// traced window, load-generator figures from the untraced one, and the
// tracing overhead from comparing the two.
func printLayers(out map[string]metric, base, m *measurement, st map[string]LayerStat) {
	var total time.Duration
	for _, l := range layers {
		total += st[l].Self
	}
	for _, l := range layers {
		s := st[l]
		frac := 0.0
		if total > 0 {
			frac = float64(s.Self) / float64(total)
		}
		out[l+".self_s"] = metric{s.Self.Seconds(), "s"}
		out[l+".self_frac"] = metric{frac, "frac"}
		out[l+".calls"] = metric{float64(s.Calls), "count"}
		out[l+".p50_us"] = metric{float64(s.P50) / 1e3, "us"}
		out[l+".p99_us"] = metric{float64(s.P99) / 1e3, "us"}
	}
	for _, c := range perLayerCounters {
		v := m.layer[c.name]
		if strings.HasPrefix(c.name, "loadgen.") {
			v = base.layer[c.name]
		}
		out[c.name] = metric{v, c.unit}
	}
	out["failed_frac"] = metric{float64(m.failed+base.failed) / float64(max(m.ops+base.ops, 1)), "frac"}
	out["files_per_s"] = metric{base.perSec, "1/s"}
	out["lat_p50_ms"] = metric{ms(base.latP50), "ms"}
	out["lat_p99_ms"] = metric{ms(base.latP99), "ms"}
	out["trace.overhead_frac"] = metric{m.slowdown/base.slowdown - 1, "frac"}
}

// saveSpans writes the traced window's spans to a JSONL file.
func saveSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints a per-layer table for a span JSONL file.
func printSelfTimes(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := readSpans(f)
	if err != nil {
		return err
	}
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return st[names[a]].Self > st[names[b]].Self })
	fmt.Printf("%-18s %10s %8s %10s %10s\n", "layer", "self_s", "calls", "p50_us", "p99_us")
	for _, n := range names {
		s := st[n]
		fmt.Printf("%-18s %10.4f %8d %10.1f %10.1f\n", n, s.Self.Seconds(), s.Calls, float64(s.P50)/1e3, float64(s.P99)/1e3)
	}
	return nil
}

// cpuTime returns the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS watermark, so the next
// peakRSSMB covers only what ran since.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported kernels keep the process-lifetime peak
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// allocated returns the bytes allocated by the process so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
