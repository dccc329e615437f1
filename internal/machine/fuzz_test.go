package machine

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// fuzzStepLimit keeps each fuzzed run short; most seeds stop at it.
const fuzzStepLimit = 50_000

// FuzzRun feeds arbitrary C/C++ text — what an LLM-written test can
// contain — through the reference compiler and, when it compiles, the
// machine. Run must not panic, a run without a trap stays within its
// step limit, a step-limit trap exits 124, and two single-worker runs
// of one object are identical. Seeds are generated Part-Two suite
// files of both dialects, languages and probe mutants, committed under
// testdata/fuzz.
func FuzzRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, omp, cpp bool, code string) {
		d, lang := spec.OpenACC, testlang.LangC
		if omp {
			d = spec.OpenMP
		}
		if cpp {
			lang = testlang.LangCPP
		}
		res := compiler.Reference(d).Compile("fuzz.c", code, lang)
		if !res.OK || res.Object == nil {
			return
		}
		opts := Options{Workers: 1, StepLimit: fuzzStepLimit}
		first := Run(res.Object, opts)
		if first.Trap == "" && first.Steps > opts.StepLimit {
			t.Fatalf("untrapped run took %d steps, limit %d", first.Steps, opts.StepLimit)
		}
		if first.Trap == "step-limit" && first.ReturnCode != 124 {
			t.Fatalf("step-limit trap returned rc %d, want 124", first.ReturnCode)
		}
		if again := Run(res.Object, opts); *again != *first {
			t.Fatalf("single-worker runs differ:\n%+v\n%+v", *first, *again)
		}
	})
}
