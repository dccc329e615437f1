package model

import (
	"testing"

	"repro/internal/spec"
)

// FuzzExtractFeatures feeds arbitrary source text — what an LLM-written
// test can contain — through feature extraction. Extraction must not
// panic, the shared memo must agree with direct extraction, and the
// token count must match the token list. Seeds are generated suite
// files of both dialects, languages and probe mutants, committed under
// testdata/fuzz.
func FuzzExtractFeatures(f *testing.F) {
	f.Fuzz(func(t *testing.T, omp bool, code string) {
		d := spec.OpenACC
		if omp {
			d = spec.OpenMP
		}
		want := ExtractFeatures(code, d, sharedNGram)
		if got := sharedFeatures.get(code, d); got != want {
			t.Fatalf("memo %+v, direct %+v", got, want)
		}
		if n, toks := countTokens(code), len(Tokenize(code)); n != toks {
			t.Fatalf("countTokens = %d, len(Tokenize) = %d", n, toks)
		}
	})
}
