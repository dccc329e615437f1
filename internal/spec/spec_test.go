package spec

import (
	"strings"
	"testing"
)

func TestDialectStrings(t *testing.T) {
	if OpenACC.String() != "OpenACC" || OpenMP.String() != "OpenMP" {
		t.Fatal("dialect names wrong")
	}
	if OpenACC.Sentinel() != "acc" || OpenMP.Sentinel() != "omp" {
		t.Fatal("sentinels wrong")
	}
	if OpenACC.FortranSentinel() != "!$acc" || OpenMP.FortranSentinel() != "!$omp" {
		t.Fatal("fortran sentinels wrong")
	}
	if got := Dialect(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown dialect string = %q", got)
	}
}

func TestOpenACCCoreDirectives(t *testing.T) {
	s := OpenACCSpec()
	for _, name := range []string{
		"parallel", "kernels", "serial", "parallel loop", "kernels loop",
		"loop", "data", "enter data", "exit data", "update", "atomic",
		"wait", "routine", "declare", "host_data",
	} {
		if _, ok := s.Lookup(name); !ok {
			t.Errorf("OpenACC missing directive %q", name)
		}
	}
	if _, ok := s.Lookup("target"); ok {
		t.Error("OpenACC spec must not contain OpenMP 'target'")
	}
	if _, ok := s.Lookup("parallell"); ok {
		t.Error("misspelled directive looked up successfully")
	}
}

func TestOpenMPCoreDirectives(t *testing.T) {
	s := OpenMPSpec()
	for _, name := range []string{
		"parallel", "for", "parallel for", "target", "target data",
		"target teams distribute parallel for", "teams", "distribute",
		"atomic", "critical", "barrier", "single", "master", "simd",
		"target enter data", "target exit data", "target update",
	} {
		if _, ok := s.Lookup(name); !ok {
			t.Errorf("OpenMP missing directive %q", name)
		}
	}
	if _, ok := s.Lookup("kernels"); ok {
		t.Error("OpenMP spec must not contain OpenACC 'kernels'")
	}
}

func TestOpenMPVersionGate(t *testing.T) {
	s := OpenMPSpec()
	if s.MaxVersion != 45 {
		t.Fatalf("OpenMP MaxVersion = %d, want 45 (paper restricts to <= 4.5)", s.MaxVersion)
	}
	// Everything in the table must be accepted by a 4.5 compiler.
	for _, name := range s.Directives() {
		d, _ := s.Lookup(name)
		if d.Version > s.MaxVersion {
			t.Errorf("directive %q has version %d > max %d", name, d.Version, s.MaxVersion)
		}
	}
}

func TestClauseTables(t *testing.T) {
	acc := OpenACCSpec()
	cases := []struct {
		dir, clause string
		want        bool
	}{
		{"parallel loop", "reduction", true},
		{"parallel loop", "copyin", true},
		{"parallel loop", "gang", true},
		{"parallel", "copyout", true},
		{"parallel", "gang", false}, // gang is a loop clause
		{"data", "copy", true},
		{"data", "num_gangs", false},
		{"update", "host", true},
		{"update", "copyin", false},
		{"enter data", "copyin", true},
		{"enter data", "copyout", false},
		{"exit data", "copyout", true},
		{"exit data", "copyin", false},
		{"atomic", "update", true},
		{"atomic", "copy", false},
	}
	for _, c := range cases {
		if got := acc.HasClause(c.dir, c.clause); got != c.want {
			t.Errorf("OpenACC %s/%s = %v, want %v", c.dir, c.clause, got, c.want)
		}
	}

	omp := OpenMPSpec()
	ompCases := []struct {
		dir, clause string
		want        bool
	}{
		{"parallel for", "reduction", true},
		{"parallel for", "schedule", true},
		{"parallel for", "map", false},
		{"target", "map", true},
		{"target", "schedule", false},
		{"target teams distribute parallel for", "map", true},
		{"target teams distribute parallel for", "num_teams", true},
		{"target teams distribute parallel for", "schedule", true},
		{"for", "num_threads", false},
		{"parallel", "num_threads", true},
		{"critical", "private", false},
		{"target update", "to", true},
		{"target update", "map", false},
	}
	for _, c := range ompCases {
		if got := omp.HasClause(c.dir, c.clause); got != c.want {
			t.Errorf("OpenMP %s/%s = %v, want %v", c.dir, c.clause, got, c.want)
		}
	}
}

func TestHasClauseUnknownDirective(t *testing.T) {
	if OpenMPSpec().HasClause("no-such-directive", "private") {
		t.Fatal("HasClause returned true for unknown directive")
	}
}

func TestLongestDirective(t *testing.T) {
	omp := OpenMPSpec()
	cases := []struct {
		words    []string
		wantName string
		wantN    int
	}{
		{[]string{"target", "teams", "distribute", "parallel", "for", "map(tofrom:a)"}, "target teams distribute parallel for", 5},
		{[]string{"target", "map(to:a)"}, "target", 1},
		{[]string{"parallel", "for", "reduction(+:sum)"}, "parallel for", 2},
		{[]string{"parallel", "num_threads(4)"}, "parallel", 1},
		{[]string{"target", "enter", "data", "map(to:a)"}, "target enter data", 3},
	}
	for _, c := range cases {
		d, n, ok := omp.LongestDirective(c.words)
		if !ok {
			t.Errorf("LongestDirective(%v) failed", c.words)
			continue
		}
		if d.Name != c.wantName || n != c.wantN {
			t.Errorf("LongestDirective(%v) = %q/%d, want %q/%d", c.words, d.Name, n, c.wantName, c.wantN)
		}
	}
	if _, _, ok := omp.LongestDirective([]string{"bogus", "thing"}); ok {
		t.Error("LongestDirective matched a bogus name")
	}
	if _, _, ok := omp.LongestDirective(nil); ok {
		t.Error("LongestDirective matched empty input")
	}
}

func TestLongestDirectiveOpenACC(t *testing.T) {
	acc := OpenACCSpec()
	d, n, ok := acc.LongestDirective([]string{"parallel", "loop", "gang"})
	if !ok || d.Name != "parallel loop" || n != 2 {
		t.Fatalf("got %v/%d/%v, want parallel loop/2/true", d, n, ok)
	}
	d, n, ok = acc.LongestDirective([]string{"enter", "data", "copyin(a)"})
	if !ok || d.Name != "enter data" || n != 2 {
		t.Fatalf("got %v/%d/%v, want enter data/2/true", d, n, ok)
	}
}

func TestDirectivesSortedAndComplete(t *testing.T) {
	for _, s := range []*Spec{OpenACCSpec(), OpenMPSpec()} {
		names := s.Directives()
		if len(names) < 15 {
			t.Errorf("%v spec suspiciously small: %d directives", s.Dialect, len(names))
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Errorf("%v Directives() not sorted at %d: %q >= %q", s.Dialect, i, names[i-1], names[i])
			}
		}
		for _, n := range names {
			if _, ok := s.Lookup(n); !ok {
				t.Errorf("%v: Directives() lists %q but Lookup fails", s.Dialect, n)
			}
		}
	}
}

func TestLookupNormalisesWhitespace(t *testing.T) {
	omp := OpenMPSpec()
	if _, ok := omp.Lookup("  parallel   for "); !ok {
		t.Fatal("Lookup should normalise interior/exterior whitespace")
	}
}

func TestAssociations(t *testing.T) {
	acc := OpenACCSpec()
	omp := OpenMPSpec()
	cases := []struct {
		spec *Spec
		dir  string
		want Association
	}{
		{acc, "parallel loop", AssocLoop},
		{acc, "parallel", AssocBlock},
		{acc, "update", AssocNone},
		{acc, "atomic", AssocStatement},
		{omp, "parallel for", AssocLoop},
		{omp, "target", AssocBlock},
		{omp, "barrier", AssocNone},
		{omp, "atomic", AssocStatement},
	}
	for _, c := range cases {
		d, ok := c.spec.Lookup(c.dir)
		if !ok {
			t.Fatalf("missing %q", c.dir)
		}
		if d.Association != c.want {
			t.Errorf("%v %q association = %v, want %v", c.spec.Dialect, c.dir, d.Association, c.want)
		}
	}
}

func TestStandaloneFlags(t *testing.T) {
	acc := OpenACCSpec()
	for _, name := range []string{"update", "wait", "enter data", "exit data", "routine", "declare"} {
		d, _ := acc.Lookup(name)
		if d == nil || !d.Standalone {
			t.Errorf("OpenACC %q should be standalone", name)
		}
	}
	omp := OpenMPSpec()
	for _, name := range []string{"barrier", "taskwait", "flush", "target update", "threadprivate"} {
		d, _ := omp.Lookup(name)
		if d == nil || !d.Standalone {
			t.Errorf("OpenMP %q should be standalone", name)
		}
	}
	d, _ := omp.Lookup("parallel")
	if d.Standalone {
		t.Error("OpenMP parallel must not be standalone")
	}
}

func TestMapTypes(t *testing.T) {
	for _, mt := range []string{"to", "from", "tofrom", "alloc"} {
		if !ValidMapType(mt) {
			t.Errorf("map type %q should be valid", mt)
		}
	}
	for _, mt := range []string{"always", "close", "bogus", ""} {
		if ValidMapType(mt) {
			t.Errorf("map type %q should be invalid", mt)
		}
	}
}

func TestReductionOps(t *testing.T) {
	for _, op := range []string{"+", "*", "max", "min"} {
		if !ValidReductionOp(op) {
			t.Errorf("reduction op %q should be valid", op)
		}
	}
	if ValidReductionOp("-") || ValidReductionOp("xor") {
		t.Error("invalid reduction op accepted")
	}
}

func TestForDialect(t *testing.T) {
	if ForDialect(OpenACC).Dialect != OpenACC {
		t.Fatal("ForDialect(OpenACC) wrong")
	}
	if ForDialect(OpenMP).Dialect != OpenMP {
		t.Fatal("ForDialect(OpenMP) wrong")
	}
	if ForDialect(OpenACC) != OpenACCSpec() || ForDialect(OpenMP) != OpenMPSpec() {
		t.Fatal("ForDialect must return the shared per-dialect table")
	}
}

// referenceLongestDirective is the original algorithm: split every
// table name on every call and keep the longest that prefixes words.
func referenceLongestDirective(s *Spec, words []string) (*Directive, int, bool) {
	best := 0
	var bestDir *Directive
	for n := range s.directives {
		parts := strings.Fields(n)
		if len(parts) > len(words) || len(parts) <= best {
			continue
		}
		match := true
		for i, p := range parts {
			if words[i] != p {
				match = false
				break
			}
		}
		if match {
			best = len(parts)
			bestDir = s.directives[n]
		}
	}
	if bestDir == nil {
		return nil, 0, false
	}
	return bestDir, best, true
}

func TestLongestDirectiveMatchesReference(t *testing.T) {
	tables := []*Spec{OpenACCSpec(), OpenMPSpec()}
	inputs := [][]string{
		nil,
		{},
		{"parallell"},
		{"end"},
		{"parallell", "loop"},
		{"end", "declare"},
	}
	for _, s := range tables {
		for _, name := range s.Directives() {
			words := strings.Fields(name)
			inputs = append(inputs, words)
			for _, tail := range [][]string{{"copyin(a[0:n])"}, {"nowait"}, {"map(tofrom:a)", "private(i)"}, {"loop"}} {
				inputs = append(inputs, append(append([]string{}, words...), tail...))
			}
			for k := 1; k < len(words); k++ {
				inputs = append(inputs, words[:k:k])
			}
		}
	}
	for _, s := range tables {
		for _, in := range inputs {
			gd, gn, gok := s.LongestDirective(in)
			wd, wn, wok := referenceLongestDirective(s, in)
			if gd != wd || gn != wn || gok != wok {
				t.Errorf("%v LongestDirective(%q) = %v/%d/%v, reference %v/%d/%v", s.Dialect, in, gd, gn, gok, wd, wn, wok)
			}
		}
	}
}
