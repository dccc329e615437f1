package spec_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/corpus"
	"repro/internal/model"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// TestSharedTablesNeverMutated runs generated suites, with every probe
// mutant, through each consumer of the shared tables — parser,
// compiler and feature extractor — and then checks the tables still
// equal a fresh build.
func TestSharedTablesNeverMutated(t *testing.T) {
	langs := []testlang.Language{testlang.LangC, testlang.LangCPP, testlang.LangFortran}
	ng := model.NewNGram()
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		files := corpus.Generate(corpus.Config{Dialect: d, Langs: langs, Seed: 7, UnsupportedFraction: 0.14}, 60)
		pers := compiler.ForDialect(d)
		for _, f := range files {
			for issue := probe.Issue(0); issue < probe.NumIssues; issue++ {
				pf := probe.Mutate(f, issue, rng.New(uint64(issue)).Split(f.Name))
				testlang.ParseFile(pf.Source, pf.Lang, d)
				pers.Compile(pf.Name, pf.Source, pf.Lang)
				model.ExtractFeatures(pf.Source, d, ng)
			}
		}
	}
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		if !reflect.DeepEqual(spec.ForDialect(d), spec.BuildForTest(d)) {
			t.Errorf("shared %v table differs from a fresh build: a caller mutated it", d)
		}
	}
}

// TestSharedTablesConcurrentReads reads both shared tables from many
// goroutines at once; run under -race it checks that lookups never
// write shared state.
func TestSharedTablesConcurrentReads(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := spec.ForDialect(spec.Dialect(g % 2))
			for i := 0; i < 50; i++ {
				for _, name := range s.Directives() {
					if _, ok := s.Lookup(" " + name); !ok {
						t.Errorf("%v Lookup(%q) failed", s.Dialect, name)
					}
					words := append(strings.Fields(name), "private(x)")
					if d, n, ok := s.LongestDirective(words); !ok || d.Name != name || n != len(words)-1 {
						t.Errorf("%v LongestDirective(%q) = %v/%d/%v", s.Dialect, words, d, n, ok)
					}
					s.HasClause(name, "private")
				}
			}
		}(g)
	}
	wg.Wait()
}
