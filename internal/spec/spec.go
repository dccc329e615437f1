// Package spec encodes the directive specifications for the two
// directive-based programming models the paper targets: OpenACC (as
// accepted by the simulated NVIDIA HPC SDK compiler) and OpenMP
// restricted to version 4.5 and below (as accepted by the simulated
// LLVM offloading compiler — the paper restricts its Part-Two OpenMP
// suite to <= 4.5 so the compiler is fully compliant for every feature
// present).
//
// The tables here are the single source of truth consumed by:
//
//   - internal/compiler, to validate directives and clauses;
//   - internal/corpus, to generate only specification-conforming tests;
//   - internal/probe, to produce "swapped directive" mutations that are
//     plausibly-shaped but invalid;
//   - internal/model, whose feature extractor checks code against the
//     same tables a real code LLM would have absorbed from training.
//
// Each dialect's table is built once, at package initialisation, and
// every ForDialect, OpenACCSpec and OpenMPSpec call returns that same
// process-wide *Spec. The tables are read-only after init and safe for
// concurrent use: callers must never mutate a *Directive or its
// Clauses map (TestSharedTablesNeverMutated guards this).
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Dialect identifies one of the two directive-based programming models.
type Dialect int

const (
	// OpenACC is the OpenACC 3.x model compiled by the simulated nvc.
	OpenACC Dialect = iota
	// OpenMP is the OpenMP <= 4.5 model compiled by the simulated
	// LLVM offloading compiler.
	OpenMP
)

// String returns the conventional model name.
func (d Dialect) String() string {
	switch d {
	case OpenACC:
		return "OpenACC"
	case OpenMP:
		return "OpenMP"
	default:
		return fmt.Sprintf("Dialect(%d)", int(d))
	}
}

// Sentinel returns the pragma sentinel for C/C++ sources ("acc"/"omp").
func (d Dialect) Sentinel() string {
	if d == OpenACC {
		return "acc"
	}
	return "omp"
}

// FortranSentinel returns the comment sentinel used in free-form
// Fortran sources ("!$acc"/"!$omp").
func (d Dialect) FortranSentinel() string {
	return "!$" + d.Sentinel()
}

// ClauseArg describes the argument shape a clause accepts.
type ClauseArg int

const (
	// ArgNone means the clause takes no parenthesised argument
	// (e.g. "independent", "nowait").
	ArgNone ClauseArg = iota
	// ArgVarList means a comma-separated list of variable references,
	// possibly with array sections (e.g. "copyin(a[0:n])").
	ArgVarList
	// ArgIntExpr means a single integer expression (e.g. "num_gangs(32)").
	ArgIntExpr
	// ArgReduction means a reduction operator followed by a variable
	// list (e.g. "reduction(+:sum)").
	ArgReduction
	// ArgMap means an OpenMP map clause: map-type ":" variable list
	// (e.g. "map(tofrom: a[0:n])").
	ArgMap
	// ArgOptionalIntExpr means the parenthesised argument may be
	// omitted (e.g. OpenACC "async" / "worker(4)").
	ArgOptionalIntExpr
	// ArgIfExpr means a scalar condition expression (e.g. "if(n > 0)").
	ArgIfExpr
)

// Clause describes one clause accepted by one or more directives.
type Clause struct {
	Name string
	Arg  ClauseArg
}

// Directive describes one directive of a dialect: its (possibly
// multi-word) name, the clauses it accepts, whether it must be
// associated with an immediately following loop or structured block,
// and the model version that introduced it.
type Directive struct {
	// Name is the space-separated directive name as written after the
	// sentinel, e.g. "parallel loop" or "target teams distribute".
	Name string
	// Clauses maps clause name to its argument shape.
	Clauses map[string]ClauseArg
	// Association describes what program construct must follow.
	Association Association
	// Version is the minimum specification version (x10: 45 = 4.5,
	// 30 = 3.0). The simulated compilers gate on this.
	Version int
	// Standalone directives (e.g. "update", "barrier") take effect at
	// their own position rather than opening a region.
	Standalone bool
}

// Association describes the construct a directive must be attached to.
type Association int

const (
	// AssocNone: standalone executable directive.
	AssocNone Association = iota
	// AssocBlock: applies to the following structured block (compound
	// statement or single statement).
	AssocBlock
	// AssocLoop: must be followed by a for/do loop.
	AssocLoop
	// AssocStatement: must be followed by a single supported statement
	// (e.g. atomic update).
	AssocStatement
)

// ReductionOps lists the reduction operators both models accept on the
// numeric types the test corpus uses.
var ReductionOps = []string{"+", "*", "max", "min", "&&", "||"}

// Spec is a complete directive specification for one dialect.
type Spec struct {
	Dialect    Dialect
	directives map[string]*Directive
	// longestFirst holds every directive with its name split into
	// words, most words first, for LongestDirective.
	longestFirst []splitDirective
	// MaxVersion is the highest specification version the simulated
	// compiler accepts (e.g. 45 for OpenMP 4.5).
	MaxVersion int
}

// splitDirective is a directive together with its name's words.
type splitDirective struct {
	words []string
	dir   *Directive
}

// Lookup returns the directive with the given space-normalised name.
// Keys are stored normalised, so an already-normalised name (the
// common case) is found without normalising it again.
func (s *Spec) Lookup(name string) (*Directive, bool) {
	if d, ok := s.directives[name]; ok {
		return d, true
	}
	d, ok := s.directives[normalize(name)]
	return d, ok
}

// Directives returns all directive names, sorted, for deterministic
// iteration by the corpus generator and mutators.
func (s *Spec) Directives() []string {
	names := make([]string, 0, len(s.directives))
	for n := range s.directives {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HasClause reports whether directive dir accepts clause cl.
func (s *Spec) HasClause(dir, cl string) bool {
	d, ok := s.Lookup(dir)
	if !ok {
		return false
	}
	_, ok = d.Clauses[cl]
	return ok
}

// LongestDirective returns the longest directive name (in words) that
// is a prefix of the given token sequence, along with the number of
// words consumed. It returns ok=false if no directive matches.
// Directive grammars are word-greedy: "target teams distribute
// parallel for" must win over "target".
func (s *Spec) LongestDirective(words []string) (d *Directive, consumed int, ok bool) {
	for _, sd := range s.longestFirst {
		if len(sd.words) > len(words) {
			continue
		}
		match := true
		for i, w := range sd.words {
			if words[i] != w {
				match = false
				break
			}
		}
		if match {
			return sd.dir, len(sd.words), true
		}
	}
	return nil, 0, false
}

func normalize(name string) string {
	return strings.Join(strings.Fields(name), " ")
}

func buildSpec(d Dialect, maxVersion int, dirs []*Directive) *Spec {
	m := make(map[string]*Directive, len(dirs))
	for _, dir := range dirs {
		m[normalize(dir.Name)] = dir
	}
	split := make([]splitDirective, len(dirs))
	for i, dir := range dirs {
		split[i] = splitDirective{words: strings.Fields(dir.Name), dir: dir}
	}
	// Two names of equal length never prefix the same input, so the
	// first match in most-words-first order is the longest.
	sort.SliceStable(split, func(i, j int) bool { return len(split[i].words) > len(split[j].words) })
	return &Spec{Dialect: d, directives: m, longestFirst: split, MaxVersion: maxVersion}
}

// clauseSet builds a clause map from (name, arg) pairs declared with
// the cl helper.
func clauseSet(cs ...Clause) map[string]ClauseArg {
	m := make(map[string]ClauseArg, len(cs))
	for _, c := range cs {
		m[c.Name] = c.Arg
	}
	return m
}

func cl(name string, arg ClauseArg) Clause { return Clause{Name: name, Arg: arg} }

// Shared clause groups.
var (
	accDataClauses = []Clause{
		cl("copy", ArgVarList),
		cl("copyin", ArgVarList),
		cl("copyout", ArgVarList),
		cl("create", ArgVarList),
		cl("present", ArgVarList),
		cl("deviceptr", ArgVarList),
		cl("no_create", ArgVarList),
		cl("attach", ArgVarList),
	}
	accComputeClauses = append([]Clause{
		cl("if", ArgIfExpr),
		cl("async", ArgOptionalIntExpr),
		cl("wait", ArgOptionalIntExpr),
		cl("num_gangs", ArgIntExpr),
		cl("num_workers", ArgIntExpr),
		cl("vector_length", ArgIntExpr),
		cl("private", ArgVarList),
		cl("firstprivate", ArgVarList),
		cl("reduction", ArgReduction),
		cl("default", ArgVarList), // default(none) / default(present)
	}, accDataClauses...)
	accLoopClauses = []Clause{
		cl("gang", ArgOptionalIntExpr),
		cl("worker", ArgOptionalIntExpr),
		cl("vector", ArgOptionalIntExpr),
		cl("seq", ArgNone),
		cl("independent", ArgNone),
		cl("auto", ArgNone),
		cl("collapse", ArgIntExpr),
		cl("tile", ArgVarList),
		cl("private", ArgVarList),
		cl("reduction", ArgReduction),
	}
)

// The process-wide tables, built once at init and never mutated.
var (
	openACCTable = buildOpenACC()
	openMPTable  = buildOpenMP()
)

// OpenACCSpec returns the shared, read-only OpenACC 3.x specification
// table accepted by the simulated nvc compiler.
func OpenACCSpec() *Spec { return openACCTable }

// OpenMPSpec returns the shared, read-only OpenMP specification table
// restricted to version 4.5 and below, matching the paper's Part-Two
// constraint that every feature present be fully supported by the
// LLVM offloading compiler.
func OpenMPSpec() *Spec { return openMPTable }

// ForDialect returns the shared, read-only specification for the given
// dialect.
func ForDialect(d Dialect) *Spec {
	if d == OpenACC {
		return openACCTable
	}
	return openMPTable
}

// buildOpenACC builds the OpenACC table; only package init and tests
// call it.
func buildOpenACC() *Spec {
	return buildSpec(OpenACC, 33, []*Directive{
		{Name: "parallel", Clauses: clauseSet(accComputeClauses...), Association: AssocBlock, Version: 10},
		{Name: "kernels", Clauses: clauseSet(accComputeClauses...), Association: AssocBlock, Version: 10},
		{Name: "serial", Clauses: clauseSet(append([]Clause{
			cl("if", ArgIfExpr), cl("async", ArgOptionalIntExpr), cl("wait", ArgOptionalIntExpr),
			cl("private", ArgVarList), cl("firstprivate", ArgVarList), cl("reduction", ArgReduction),
		}, accDataClauses...)...), Association: AssocBlock, Version: 27},
		{Name: "parallel loop", Clauses: clauseSet(append(append([]Clause{}, accComputeClauses...), accLoopClauses...)...), Association: AssocLoop, Version: 10},
		{Name: "kernels loop", Clauses: clauseSet(append(append([]Clause{}, accComputeClauses...), accLoopClauses...)...), Association: AssocLoop, Version: 10},
		{Name: "serial loop", Clauses: clauseSet(accLoopClauses...), Association: AssocLoop, Version: 27},
		{Name: "loop", Clauses: clauseSet(accLoopClauses...), Association: AssocLoop, Version: 10},
		{Name: "data", Clauses: clauseSet(append([]Clause{cl("if", ArgIfExpr), cl("async", ArgOptionalIntExpr), cl("wait", ArgOptionalIntExpr)}, accDataClauses...)...), Association: AssocBlock, Version: 10},
		{Name: "enter data", Clauses: clauseSet(cl("copyin", ArgVarList), cl("create", ArgVarList), cl("attach", ArgVarList), cl("if", ArgIfExpr), cl("async", ArgOptionalIntExpr), cl("wait", ArgOptionalIntExpr)), Association: AssocNone, Standalone: true, Version: 20},
		{Name: "exit data", Clauses: clauseSet(cl("copyout", ArgVarList), cl("delete", ArgVarList), cl("detach", ArgVarList), cl("if", ArgIfExpr), cl("async", ArgOptionalIntExpr), cl("wait", ArgOptionalIntExpr), cl("finalize", ArgNone)), Association: AssocNone, Standalone: true, Version: 20},
		{Name: "host_data", Clauses: clauseSet(cl("use_device", ArgVarList), cl("if", ArgIfExpr), cl("if_present", ArgNone)), Association: AssocBlock, Version: 10},
		{Name: "update", Clauses: clauseSet(cl("host", ArgVarList), cl("self", ArgVarList), cl("device", ArgVarList), cl("if", ArgIfExpr), cl("async", ArgOptionalIntExpr), cl("wait", ArgOptionalIntExpr), cl("if_present", ArgNone)), Association: AssocNone, Standalone: true, Version: 10},
		{Name: "atomic", Clauses: clauseSet(cl("read", ArgNone), cl("write", ArgNone), cl("update", ArgNone), cl("capture", ArgNone)), Association: AssocStatement, Version: 20},
		{Name: "wait", Clauses: clauseSet(cl("async", ArgOptionalIntExpr), cl("if", ArgIfExpr)), Association: AssocNone, Standalone: true, Version: 10},
		{Name: "routine", Clauses: clauseSet(cl("gang", ArgNone), cl("worker", ArgNone), cl("vector", ArgNone), cl("seq", ArgNone), cl("bind", ArgVarList)), Association: AssocNone, Standalone: true, Version: 20},
		{Name: "declare", Clauses: clauseSet(append([]Clause{cl("device_resident", ArgVarList), cl("link", ArgVarList)}, accDataClauses...)...), Association: AssocNone, Standalone: true, Version: 10},
		{Name: "init", Clauses: clauseSet(cl("device_type", ArgVarList), cl("device_num", ArgIntExpr)), Association: AssocNone, Standalone: true, Version: 30},
		{Name: "shutdown", Clauses: clauseSet(cl("device_type", ArgVarList), cl("device_num", ArgIntExpr)), Association: AssocNone, Standalone: true, Version: 30},
		{Name: "set", Clauses: clauseSet(cl("device_type", ArgVarList), cl("device_num", ArgIntExpr), cl("default_async", ArgIntExpr)), Association: AssocNone, Standalone: true, Version: 30},
	})
}

// Shared OpenMP clause groups (<= 4.5 feature set).
var (
	ompParallelClauses = []Clause{
		cl("if", ArgIfExpr),
		cl("num_threads", ArgIntExpr),
		cl("default", ArgVarList), // default(shared) / default(none)
		cl("private", ArgVarList),
		cl("firstprivate", ArgVarList),
		cl("shared", ArgVarList),
		cl("reduction", ArgReduction),
		cl("proc_bind", ArgVarList),
	}
	ompForClauses = []Clause{
		cl("private", ArgVarList),
		cl("firstprivate", ArgVarList),
		cl("lastprivate", ArgVarList),
		cl("reduction", ArgReduction),
		cl("schedule", ArgVarList),
		cl("collapse", ArgIntExpr),
		cl("ordered", ArgNone),
		cl("nowait", ArgNone),
	}
	ompTargetClauses = []Clause{
		cl("if", ArgIfExpr),
		cl("device", ArgIntExpr),
		cl("map", ArgMap),
		cl("private", ArgVarList),
		cl("firstprivate", ArgVarList),
		cl("defaultmap", ArgVarList),
		cl("nowait", ArgNone),
		cl("depend", ArgVarList),
		cl("is_device_ptr", ArgVarList),
	}
	ompTeamsClauses = []Clause{
		cl("num_teams", ArgIntExpr),
		cl("thread_limit", ArgIntExpr),
		cl("default", ArgVarList),
		cl("private", ArgVarList),
		cl("firstprivate", ArgVarList),
		cl("shared", ArgVarList),
		cl("reduction", ArgReduction),
	}
	ompSimdClauses = []Clause{
		cl("safelen", ArgIntExpr),
		cl("simdlen", ArgIntExpr),
		cl("linear", ArgVarList),
		cl("aligned", ArgVarList),
		cl("private", ArgVarList),
		cl("lastprivate", ArgVarList),
		cl("reduction", ArgReduction),
		cl("collapse", ArgIntExpr),
	}
)

func merge(groups ...[]Clause) map[string]ClauseArg {
	var all []Clause
	for _, g := range groups {
		all = append(all, g...)
	}
	return clauseSet(all...)
}

// buildOpenMP builds the OpenMP <= 4.5 table; only package init and
// tests call it.
func buildOpenMP() *Spec {
	distClauses := []Clause{
		cl("private", ArgVarList), cl("firstprivate", ArgVarList),
		cl("lastprivate", ArgVarList), cl("collapse", ArgIntExpr),
		cl("dist_schedule", ArgVarList),
	}
	return buildSpec(OpenMP, 45, []*Directive{
		{Name: "parallel", Clauses: merge(ompParallelClauses), Association: AssocBlock, Version: 10},
		{Name: "for", Clauses: merge(ompForClauses), Association: AssocLoop, Version: 10},
		{Name: "parallel for", Clauses: merge(ompParallelClauses, ompForClauses), Association: AssocLoop, Version: 10},
		{Name: "simd", Clauses: merge(ompSimdClauses), Association: AssocLoop, Version: 40},
		{Name: "for simd", Clauses: merge(ompForClauses, ompSimdClauses), Association: AssocLoop, Version: 40},
		{Name: "parallel for simd", Clauses: merge(ompParallelClauses, ompForClauses, ompSimdClauses), Association: AssocLoop, Version: 40},
		{Name: "sections", Clauses: merge(ompForClauses[:4:4]), Association: AssocBlock, Version: 10},
		{Name: "section", Clauses: clauseSet(), Association: AssocBlock, Version: 10},
		{Name: "single", Clauses: clauseSet(cl("private", ArgVarList), cl("firstprivate", ArgVarList), cl("nowait", ArgNone)), Association: AssocBlock, Version: 10},
		{Name: "master", Clauses: clauseSet(), Association: AssocBlock, Version: 10},
		{Name: "critical", Clauses: clauseSet(), Association: AssocBlock, Version: 10},
		{Name: "barrier", Clauses: clauseSet(), Association: AssocNone, Standalone: true, Version: 10},
		{Name: "taskwait", Clauses: clauseSet(), Association: AssocNone, Standalone: true, Version: 30},
		{Name: "task", Clauses: clauseSet(cl("if", ArgIfExpr), cl("private", ArgVarList), cl("firstprivate", ArgVarList), cl("shared", ArgVarList), cl("depend", ArgVarList), cl("untied", ArgNone), cl("final", ArgIfExpr), cl("priority", ArgIntExpr)), Association: AssocBlock, Version: 30},
		{Name: "atomic", Clauses: clauseSet(cl("read", ArgNone), cl("write", ArgNone), cl("update", ArgNone), cl("capture", ArgNone), cl("seq_cst", ArgNone)), Association: AssocStatement, Version: 10},
		{Name: "flush", Clauses: clauseSet(), Association: AssocNone, Standalone: true, Version: 10},
		{Name: "ordered", Clauses: clauseSet(cl("simd", ArgNone), cl("threads", ArgNone)), Association: AssocBlock, Version: 10},
		{Name: "target", Clauses: merge(ompTargetClauses), Association: AssocBlock, Version: 40},
		{Name: "target data", Clauses: clauseSet(cl("if", ArgIfExpr), cl("device", ArgIntExpr), cl("map", ArgMap), cl("use_device_ptr", ArgVarList)), Association: AssocBlock, Version: 40},
		{Name: "target enter data", Clauses: clauseSet(cl("if", ArgIfExpr), cl("device", ArgIntExpr), cl("map", ArgMap), cl("nowait", ArgNone), cl("depend", ArgVarList)), Association: AssocNone, Standalone: true, Version: 45},
		{Name: "target exit data", Clauses: clauseSet(cl("if", ArgIfExpr), cl("device", ArgIntExpr), cl("map", ArgMap), cl("nowait", ArgNone), cl("depend", ArgVarList)), Association: AssocNone, Standalone: true, Version: 45},
		{Name: "target update", Clauses: clauseSet(cl("if", ArgIfExpr), cl("device", ArgIntExpr), cl("to", ArgVarList), cl("from", ArgVarList), cl("nowait", ArgNone), cl("depend", ArgVarList)), Association: AssocNone, Standalone: true, Version: 40},
		{Name: "teams", Clauses: merge(ompTeamsClauses), Association: AssocBlock, Version: 40},
		{Name: "distribute", Clauses: clauseSet(distClauses...), Association: AssocLoop, Version: 40},
		{Name: "target teams", Clauses: merge(ompTargetClauses, ompTeamsClauses), Association: AssocBlock, Version: 40},
		{Name: "teams distribute", Clauses: merge(ompTeamsClauses, distClauses), Association: AssocLoop, Version: 40},
		{Name: "target teams distribute", Clauses: merge(ompTargetClauses, ompTeamsClauses, distClauses), Association: AssocLoop, Version: 40},
		{Name: "teams distribute parallel for", Clauses: merge(ompTeamsClauses, distClauses, ompParallelClauses, ompForClauses), Association: AssocLoop, Version: 40},
		{Name: "target teams distribute parallel for", Clauses: merge(ompTargetClauses, ompTeamsClauses, distClauses, ompParallelClauses, ompForClauses), Association: AssocLoop, Version: 40},
		{Name: "target parallel for", Clauses: merge(ompTargetClauses, ompParallelClauses, ompForClauses), Association: AssocLoop, Version: 45},
		{Name: "target parallel", Clauses: merge(ompTargetClauses, ompParallelClauses), Association: AssocBlock, Version: 45},
		{Name: "declare target", Clauses: clauseSet(cl("to", ArgVarList), cl("link", ArgVarList)), Association: AssocNone, Standalone: true, Version: 40},
		{Name: "end declare target", Clauses: clauseSet(), Association: AssocNone, Standalone: true, Version: 40},
		{Name: "threadprivate", Clauses: clauseSet(), Association: AssocNone, Standalone: true, Version: 10},
	})
}

// MapTypes lists the OpenMP map-type keywords valid in <= 4.5.
var MapTypes = []string{"to", "from", "tofrom", "alloc", "release", "delete"}

// ValidMapType reports whether mt is a valid OpenMP map-type keyword.
func ValidMapType(mt string) bool {
	for _, v := range MapTypes {
		if v == mt {
			return true
		}
	}
	return false
}

// ValidReductionOp reports whether op is a reduction operator both
// simulated compilers accept.
func ValidReductionOp(op string) bool {
	for _, v := range ReductionOps {
		if v == op {
			return true
		}
	}
	return false
}
