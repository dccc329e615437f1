package model_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	llm4vv "repro"
	"repro/internal/judge"
	"repro/internal/model"
	"repro/internal/spec"
)

// TestSeatsShareOneExtraction: 16 models with distinct seeds judging
// one prompt at once extract its features once, and all perceive the
// same features.
func TestSeatsShareOneExtraction(t *testing.T) {
	code := "#include <stdio.h>\nint main() {\n#pragma omp parallel for\n  for (int i = 0; i < 4; i++) {}\n  return 1; // seats share this\n}\n"
	prompt := (&judge.Judge{Style: judge.Direct, Dialect: spec.OpenMP}).BuildPrompt(code, nil)
	model.ResetFeatureMemo()
	before := model.FeatureExtractions()
	var wg sync.WaitGroup
	got := make([]model.Features, 16)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, _ := model.New(uint64(i)).Judge(prompt)
			got[i] = j.Features
		}()
	}
	wg.Wait()
	if n := model.FeatureExtractions() - before; n != 1 {
		t.Fatalf("16 seats ran %d extractions, want 1", n)
	}
	if got[0].DirectiveLines != 1 {
		t.Fatalf("seats perceived %d directive lines, want 1", got[0].DirectiveLines)
	}
	for i, ft := range got {
		if ft != got[0] {
			t.Fatalf("seat %d perceived %+v, seat 0 %+v", i, ft, got[0])
		}
	}
}

// TestPanelExtractsOncePerFile: a 3-seat panel judging both Part-One
// suites shard by shard extracts each distinct file exactly once.
func TestPanelExtractsOncePerFile(t *testing.T) {
	const shard = 64
	model.ResetFeatureMemo()
	before := model.FeatureExtractions()
	distinct := map[string]bool{}
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		suite, err := llm4vv.BuildSuite(llm4vv.PartOneSpec(d))
		if err != nil {
			t.Fatal(err)
		}
		p, err := llm4vv.NewPanel(strings.Repeat(llm4vv.DefaultBackend+"+", 2)+llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
		if err != nil {
			t.Fatal(err)
		}
		j := &judge.Judge{Style: judge.Direct, Dialect: d}
		prompts := make([]string, len(suite))
		for i, f := range suite {
			prompts[i] = j.BuildPrompt(f.Source, nil)
			distinct[d.String()+"\x00"+f.Source] = true
		}
		for lo := 0; lo < len(prompts); lo += shard {
			hi := min(lo+shard, len(prompts))
			if _, err := p.CompleteBatch(context.Background(), prompts[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := model.FeatureExtractions() - before; n != int64(len(distinct)) {
		t.Fatalf("3-seat panel ran %d extractions for %d distinct files", n, len(distinct))
	}
}
