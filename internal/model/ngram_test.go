package model

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// referenceScore is Score without the precomputed tables: it takes
// log2 of each trigram's smoothed probability directly.
func referenceScore(ng *NGram, text string) float64 {
	t := normalize(text)
	if len(t) < 3 {
		return 0
	}
	total := 0.0
	n := 0
	for i := 0; i+3 <= len(t); i++ {
		c := ng.counts[t[i:i+3]]
		ctx := ng.context[t[i:i+2]]
		total += math.Log2((float64(c) + 1) / (float64(ctx) + float64(ng.vocabLen)))
		n++
	}
	return total / float64(n)
}

// generatedSource is one generated suite file, possibly mutated, with
// the dialect it is judged as.
type generatedSource struct {
	dialect spec.Dialect
	src     string
}

// generatedSources returns generated suites of both dialects in every
// language, each file with all of its probe mutants.
func generatedSources() []generatedSource {
	var out []generatedSource
	langs := []testlang.Language{testlang.LangC, testlang.LangCPP, testlang.LangFortran}
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		files := corpus.Generate(corpus.Config{Dialect: d, Langs: langs, Seed: 11, UnsupportedFraction: 0.14, BrittleFraction: 0.05}, 80)
		for _, f := range files {
			for issue := probe.Issue(0); issue < probe.NumIssues; issue++ {
				out = append(out, generatedSource{d, probe.Mutate(f, issue, rng.New(uint64(issue)).Split(f.Name)).Source})
			}
		}
	}
	return out
}

// scoringTexts returns a few degenerate texts and every generated
// source.
func scoringTexts() []string {
	texts := []string{"", "ab", "abc", "flarb quon ## <<< zeta:: }{ @"}
	for _, g := range generatedSources() {
		texts = append(texts, g.src)
	}
	return texts
}

func TestNGramScoreBitIdentical(t *testing.T) {
	texts := scoringTexts()
	retrained := NewNGram()
	retrained.Train(texts[len(texts)-1] + validTestCode)
	for _, c := range []struct {
		name string
		ng   *NGram
	}{{"shared", sharedNGram}, {"retrained", retrained}} {
		for i, text := range texts {
			if got, want := c.ng.Score(text), referenceScore(c.ng, text); got != want {
				t.Fatalf("%s: Score(text %d) = %v, reference %v", c.name, i, got, want)
			}
		}
	}
	if sharedNGram.Score(validTestCode) == retrained.Score(validTestCode) {
		t.Fatal("second Train left the score unchanged")
	}
}

func TestModelsShareOneNGram(t *testing.T) {
	want := sharedNGram.Score(validTestCode)
	for _, seed := range []uint64{1, 2} {
		j, _ := New(seed).Judge(directPrompt(spec.OpenACC, validTestCode))
		if j.Features.Plausibility != want {
			t.Fatalf("model %d scored %v, shared n-gram %v", seed, j.Features.Plausibility, want)
		}
	}
}
