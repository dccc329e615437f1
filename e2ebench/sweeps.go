package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	llm4vv "repro"
	"repro/internal/ensemble"
	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/probe"
	"repro/internal/remote"
	"repro/internal/spec"
	"repro/internal/store"
)

// Registered backends. The names are the same whether tracing is on
// or off, so store keys and reports never depend on it.
const (
	// benchModel is the Runner's in-process endpoint in part2-sweep.
	benchModel = "e2e-model"
	// benchSeat is a replica-side model: a panel seat, or the whole
	// endpoint in interactive-fleet.
	benchSeat = "e2e-seat"
	// benchFleet is the Runner's client of the fleet frontend.
	benchFleet = "e2e-fleet"
	// benchPanelRef is the in-process panel the panel-fleet reference
	// judges with.
	benchPanelRef = "e2e-panel-ref"

	panelSpec = benchSeat + "+" + benchSeat + "+" + benchSeat
	modelSeed = llm4vv.DefaultModelSeed
)

var (
	// fleetClient is what benchFleet resolves to: the current fleet's
	// client.
	fleetClient atomic.Pointer[tracedLLM]
	// refSeen collects the panel reference's exchanges.
	refSeen exchanges
)

func init() {
	llm4vv.RegisterBackend(benchModel, func(seed uint64) judge.LLM {
		return &tracedLLM{layer: layerModel, inner: model.New(seed), stage: true}
	})
	llm4vv.RegisterBackend(benchSeat, func(seed uint64) judge.LLM {
		return &tracedLLM{layer: layerModel, inner: model.New(seed)}
	})
	llm4vv.RegisterBackend(benchFleet, func(uint64) judge.LLM {
		if c := fleetClient.Load(); c != nil {
			return c
		}
		return nil
	})
	llm4vv.RegisterBackend(benchPanelRef, func(seed uint64) judge.LLM {
		p, err := llm4vv.NewPanel(panelSpec, seed)
		if err != nil {
			return nil
		}
		return &tracedLLM{layer: "reference", inner: p, seen: &refSeen}
	})
}

var dialects = []spec.Dialect{spec.OpenACC, spec.OpenMP}

// partOneSuites derives both dialects' Part-One suites from the seed.
func partOneSuites(seed uint64) []llm4vv.SuiteSpec {
	var specs []llm4vv.SuiteSpec
	for _, d := range dialects {
		specs = append(specs, suiteFor(llm4vv.PartOneSpec(d), seed, 0))
	}
	return specs
}

// buildSuites builds the suites, timing the corpus and probe build.
func buildSuites(specs []llm4vv.SuiteSpec) ([][]probe.ProbedFile, float64, error) {
	t0 := time.Now()
	var suites [][]probe.ProbedFile
	for _, s := range specs {
		suite, err := llm4vv.BuildSuite(s)
		if err != nil {
			return nil, 0, err
		}
		suites = append(suites, suite)
	}
	return suites, time.Since(t0).Seconds(), nil
}

func totalFiles(specs []llm4vv.SuiteSpec) int {
	n := 0
	for _, s := range specs {
		n += s.Total()
	}
	return n
}

// moreSweeps reports whether another sweep should start: always before
// the first, then while stopping now would undershoot d by more than
// half a sweep would overshoot it.
func (m *measurement) moreSweeps(d time.Duration, rates []float64) bool {
	if len(rates) == 0 {
		return true
	}
	return m.busy+m.busy/time.Duration(2*len(rates)) < d
}

// timeSweep times part's sweep, adding its time, CPU time,
// allocations, files, peak RSS and median per-file verdict time to m,
// and returns its files per second. A file's verdict time runs from
// the start of the sweep to the progress event that delivers its
// verdict: every file of a sweep is submitted at its start.
func (m *measurement) timeSweep(part, files int, sweep func(progress llm4vv.Option) error) (float64, error) {
	var verdicts latencies
	a0 := allocated()
	resetPeakRSS()
	c0 := cpuTime()
	t0 := time.Now()
	err := sweep(llm4vv.WithProgress(func(llm4vv.Progress) { verdicts.add(time.Since(t0)) }))
	took := time.Since(t0)
	cpu := cpuTime() - c0
	m.rss = append(m.rss, peakRSSMB())
	m.allocBytes += allocated() - a0
	if err != nil {
		return 0, err
	}
	m.busy += took
	m.ops += files
	m.sweepPart = append(m.sweepPart, part)
	m.sweepCPU = append(m.sweepCPU, ms(cpu)/float64(files))
	v := verdicts.take()
	m.sweepP50 = append(m.sweepP50, quantile(v, 0.50).Seconds())
	m.sweepP99 = append(m.sweepP99, quantile(v, 0.99).Seconds())
	return float64(files) / took.Seconds(), nil
}

// finishSweeps reports the sweeps' figures. Rates and CPU time per
// file are each part's median sweep's, averaged over the parts, so a
// sweep slowed by a passing disturbance does not move them and every
// part's suite weighs the same however many sweeps it got; verdict
// times and peak RSS are the median sweep's.
func (m *measurement) finishSweeps(rates []float64) {
	m.perSec = partMean(rates, m.sweepPart)
	m.cpuMS = partMean(m.sweepCPU, m.sweepPart)
	m.latP50 = time.Duration(median(m.sweepP50) * float64(time.Second))
	m.latP99 = time.Duration(median(m.sweepP99) * float64(time.Second))
	m.slowdown = 1 / m.perSec
}

// partMean averages, over the parts, the median of each part's
// values.
func partMean(xs []float64, parts []int) float64 {
	var order []int
	byPart := map[int][]float64{}
	for i, x := range xs {
		if _, ok := byPart[parts[i]]; !ok {
			order = append(order, parts[i])
		}
		byPart[parts[i]] = append(byPart[parts[i]], x)
	}
	sum := 0.0
	for _, p := range order {
		sum += median(byPart[p])
	}
	return sum / float64(len(order))
}

// ---- part2-sweep ----

// part2Suites is how many OpenACC suites part2-sweep's sweeps take in
// turn.
const part2Suites = 3

// part2Env sweeps Part-Two suites of both dialects through the
// Runner's compile → execute → judge pipeline with a run store. Each
// sweep starts from a copy of a store that set-up filled with the
// OpenMP suite, so a sweep resumes those files and compiles, executes
// and judges an OpenACC suite.
//
// A few files of a suite, each over a million interpreted steps, take
// about half of its compile and execute time, and how many a suite
// holds varies with the suite seed, so one suite's sweep time is
// largely a draw of its seed. The seed therefore draws part2Suites
// OpenACC suites that successive sweeps take in turn, and the
// pre-filled OpenMP suite is the paper's for every seed, so set-up
// does the same work whatever the seed.
type part2Env struct {
	dir      string
	template string
	acc      []llm4vv.SuiteSpec
	omp      llm4vv.SuiteSpec
	buildS   float64
	sweeps   int
}

func setupPart2(ctx context.Context, seed uint64, dir string) (env, error) {
	e := &part2Env{dir: dir, template: filepath.Join(dir, "template"), omp: llm4vv.PartTwoSpec(spec.OpenMP)}
	for k := 0; k < part2Suites; k++ {
		e.acc = append(e.acc, suiteFor(llm4vv.PartTwoSpec(spec.OpenACC), seed, k))
	}
	var err error
	if _, e.buildS, err = buildSuites(append([]llm4vv.SuiteSpec{e.omp}, e.acc...)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.template, 0o755); err != nil {
		return nil, err
	}
	r, err := llm4vv.NewRunner(llm4vv.WithBackend(benchModel), llm4vv.WithStore(filepath.Join(e.template, "run.jsonl")))
	if err != nil {
		return nil, err
	}
	if _, err := r.PartTwo(ctx, e.omp); err != nil {
		r.Close()
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *part2Env) close() {}

// specs returns the suites of part k's sweep, in dialects order.
func (e *part2Env) specs(k int) []llm4vv.SuiteSpec {
	return []llm4vv.SuiteSpec{e.acc[k], e.omp}
}

func (e *part2Env) measure(ctx context.Context, d time.Duration, traced bool) (*measurement, error) {
	m := &measurement{layer: map[string]float64{"corpus.build_s": e.buildS}}
	var rates []float64
	for m.moreSweeps(d, rates) {
		k := e.sweeps % part2Suites
		dir := filepath.Join(e.dir, fmt.Sprintf("sweep-%d", e.sweeps))
		e.sweeps++
		if err := copyDir(e.template, dir); err != nil {
			return nil, err
		}
		var res []llm4vv.PartTwoResult
		rate, err := m.timeSweep(k, totalFiles(e.specs(k)), func(progress llm4vv.Option) (err error) {
			res, err = e.sweep(ctx, dir, e.specs(k), traced, progress)
			return err
		})
		if err != nil {
			return nil, err
		}
		rates = append(rates, rate)
		o, st, err := part2Outcome(filepath.Join(dir, "run.jsonl"), res)
		if err != nil {
			return nil, err
		}
		o.part = k
		m.outcomes = append(m.outcomes, o)
		for _, r := range res {
			m.layer["store.resumed_files"] += float64(r.Stats.Files) - float64(r.Stats.Compiles)
		}
		m.layer["store.records"] = float64(st.Keys)
		m.layer["store.segments"] = float64(st.SegmentCount())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	m.layer["store.resumed_files"] /= float64(len(rates))
	m.finishSweeps(rates)
	return m, nil
}

// sweep runs PartTwo over the suites against the store in dir, as one
// "runner" span; traced sweeps observe every pipeline stage.
func (e *part2Env) sweep(ctx context.Context, dir string, specs []llm4vv.SuiteSpec, traced bool, extra ...llm4vv.Option) ([]llm4vv.PartTwoResult, error) {
	opts := []llm4vv.Option{llm4vv.WithBackend(benchModel), llm4vv.WithStore(filepath.Join(dir, "run.jsonl")), llm4vv.WithResume(true)}
	if traced {
		opts = append(opts, llm4vv.WithStages(
			pipeline.StageSpec{Name: pipeline.StageCompile, Observe: rec.observe},
			pipeline.StageSpec{Name: pipeline.StageExec, Observe: rec.observe},
			pipeline.StageSpec{Name: pipeline.StageJudge, Observe: rec.observe}))
	}
	ctx, root := rec.start(ctx, layerRunner, 0)
	if root != nil {
		rec.root.Store(root.ID)
	}
	defer rec.end(root)
	r, err := llm4vv.NewRunner(append(opts, extra...)...)
	if err != nil {
		return nil, err
	}
	var out []llm4vv.PartTwoResult
	for _, s := range specs {
		res, err := r.PartTwo(ctx, s)
		if err != nil {
			r.Close()
			return nil, err
		}
		out = append(out, res)
	}
	return out, r.Close()
}

// reference sweeps each part into an empty store: nothing resumed.
func (e *part2Env) reference(ctx context.Context) ([]outcome, error) {
	var out []outcome
	for k := 0; k < part2Suites; k++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("reference-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		res, err := e.sweep(ctx, dir, e.specs(k), false)
		if err != nil {
			return nil, err
		}
		o, _, err := part2Outcome(filepath.Join(dir, "run.jsonl"), res)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// part2Outcome digests every record of the sweep's store — each file's
// stage outcomes and verdict per phase — with Tables IV-IX.
func part2Outcome(path string, res []llm4vv.PartTwoResult) (outcome, store.Stats, error) {
	st, err := store.Open(path)
	if err != nil {
		return outcome{}, store.Stats{}, err
	}
	var lines []string
	err = st.Scan(store.Filter{}, func(r store.Record) bool {
		lines = append(lines, fmt.Sprintf("%s|%s|%s|%t%t%t%t%t|%s|%t", r.Experiment, r.Name, r.FileHash,
			r.CompileRan, r.CompileOK, r.ExecRan, r.ExecOK, r.JudgeRan, r.Verdict, r.Valid))
		return true
	})
	stats := st.Stats()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return outcome{}, stats, err
	}
	tables := map[string]string{}
	for i, r := range res {
		d := dialects[i].String()
		tables[d+".llmj1"] = summaryText(r.LLMJ1)
		tables[d+".llmj2"] = summaryText(r.LLMJ2)
		tables[d+".pipeline1"] = summaryText(r.Pipeline1)
		tables[d+".pipeline2"] = summaryText(r.Pipeline2)
		tables[d+".direct"] = summaryText(r.Direct)
	}
	return newOutcome(lines, tables), stats, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ---- panel-fleet ----

// panelEnv runs the Part-One suites of both dialects through
// PanelProbing against the fleet: remote client → frontend → router →
// two replicas, each serving a three-seat ensemble. No store.
type panelEnv struct {
	fleet  *fleetEnv
	client *tracedLLM
	rb     *remote.Backend
	tr     *http.Transport
	specs  []llm4vv.SuiteSpec
	buildS float64
}

func setupPanel(ctx context.Context, seed uint64, dir string) (env, error) {
	specs := partOneSuites(seed)
	_, buildS, err := buildSuites(specs)
	if err != nil {
		return nil, err
	}
	var panels []judge.LLM
	for i := 0; i < replicaCount; i++ {
		p, err := llm4vv.NewPanel(panelSpec, modelSeed)
		if err != nil {
			return nil, err
		}
		panels = append(panels, p)
	}
	f, err := startFleet(func(i int) (judge.LLM, string) {
		return &tracedLLM{layer: layerEnsemble, inner: panels[i]}, "ensemble:" + panelSpec
	})
	if err != nil {
		return nil, err
	}
	e := &panelEnv{fleet: f, specs: specs, buildS: buildS}
	var hc *http.Client
	hc, e.tr = httpClient(0)
	e.rb = remote.New(f.Addr, remote.WithHTTPClient(hc))
	e.client = &tracedLLM{layer: layerRemote, inner: e.rb, seen: &exchanges{}}
	fleetClient.Store(e.client)
	// One untimed sweep opens the connections and lets the heap reach
	// its working size before timing.
	if _, err := e.sweep(ctx, benchFleet); err != nil {
		e.close()
		return nil, err
	}
	e.client.seen.take()
	return e, nil
}

func (e *panelEnv) close() {
	e.fleet.close()
	if e.tr != nil {
		e.tr.CloseIdleConnections()
	}
}

func (e *panelEnv) measure(ctx context.Context, d time.Duration, traced bool) (*measurement, error) {
	m := &measurement{layer: map[string]float64{"corpus.build_s": e.buildS}}
	before, retries := e.fleet.counts(), e.rb.Retries()
	var rates []float64
	for m.moreSweeps(d, rates) {
		var res []llm4vv.PanelDialectResult
		rate, err := m.timeSweep(0, totalFiles(e.specs), func(progress llm4vv.Option) (err error) {
			res, err = e.sweep(ctx, benchFleet, progress)
			return err
		})
		if err != nil {
			return nil, err
		}
		rates = append(rates, rate)
		m.outcomes = append(m.outcomes, panelOutcome(e.client.seen.take(), res))
	}
	for k, v := range e.fleet.counts().metrics(before) {
		m.layer[k] = v
	}
	m.layer["remote.retries"] = float64(e.rb.Retries() - retries)
	m.finishSweeps(rates)
	return m, nil
}

// sweep runs PanelProbing over both suites with the named backend, as
// one "runner" span.
func (e *panelEnv) sweep(ctx context.Context, backend string, extra ...llm4vv.Option) ([]llm4vv.PanelDialectResult, error) {
	ctx, root := rec.start(ctx, layerRunner, 0)
	defer rec.end(root)
	r, err := llm4vv.NewRunner(append([]llm4vv.Option{llm4vv.WithBackend(backend)}, extra...)...)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []llm4vv.PanelDialectResult
	for _, s := range e.specs {
		res, err := r.PanelProbing(ctx, s)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// reference judges the same suites with the same panel in process,
// without the fleet.
func (e *panelEnv) reference(ctx context.Context) ([]outcome, error) {
	refSeen.take()
	res, err := e.sweep(ctx, benchPanelRef)
	if err != nil {
		return nil, err
	}
	return []outcome{panelOutcome(refSeen.take(), res)}, nil
}

// panelOutcome digests each file's panel verdict and member votes with
// the panel's accuracy, per-member scores and Fleiss' kappa.
func panelOutcome(pairs [][2]string, res []llm4vv.PanelDialectResult) outcome {
	lines := make([]string, 0, len(pairs))
	for _, p := range pairs {
		key := judge.KeyOf(p[0])
		strat, votes, ok := ensemble.ParseVotes(p[1])
		v := "no-votes"
		if ok {
			v = ensemble.EncodeVotes(strat, votes)
		}
		lines = append(lines, fmt.Sprintf("%s|%s|%s", hex.EncodeToString(key[:8]), judge.ParseVerdict(p[1]), v))
	}
	tables := map[string]string{}
	for i, r := range res {
		d := dialects[i].String()
		tables[d+".panel"] = summaryText(r.Panel)
		tables[d+".kappa"] = fmt.Sprintf("%.6f", r.Agreement.Kappa)
		for k, s := range r.PerMember {
			tables[fmt.Sprintf("%s.member%d", d, k)] = summaryText(s)
		}
	}
	return newOutcome(lines, tables)
}
