package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/corpus"
	"repro/internal/probe"
	"repro/internal/spec"
	"repro/internal/testlang"
)

// partTwoSuite builds the paper's Part-Two suite for a dialect, probe
// mutants included. The counts, languages, seeds and fractions mirror
// llm4vv.PartTwoSpec (the root package cannot be imported from here).
func partTwoSuite(t testing.TB, d spec.Dialect) []probe.ProbedFile {
	t.Helper()
	langs := []testlang.Language{testlang.LangC, testlang.LangCPP}
	cfg := corpus.Config{Dialect: d, Langs: langs, Seed: 0x0732, BrittleFraction: 0.015}
	counts := probe.Counts{49, 28, 26, 20, 25, 148}
	if d == spec.OpenACC {
		cfg = corpus.Config{Dialect: d, Langs: langs, Seed: 0xACC2, UnsupportedFraction: 0.14}
		counts = probe.Counts{272, 146, 151, 146, 176, 891}
	}
	files, err := probe.BuildSuite(corpus.Generate(cfg, counts.Total()), counts, cfg.Seed^0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestGoldenExecutionDigest pins the observable result of Run on every
// file of both dialects' Part-Two suites: return code, stdout, stderr,
// trap and step count, hashed in suite order. Any change to the
// machine's behaviour, including a shifted step count, changes the
// digest; a deliberate one copies the reported digest into
// testdata/exec_digest.txt and says why. Files the dialect's compiler
// rejects enter the hash as a compile-failure marker.
func TestGoldenExecutionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both Part-Two suites")
	}
	h := sha256.New()
	n := 0
	for _, d := range []spec.Dialect{spec.OpenACC, spec.OpenMP} {
		pers := compiler.ForDialect(d)
		for _, f := range partTwoSuite(t, d) {
			n++
			fmt.Fprintf(h, "%s|%d|%s|", f.Name, f.Issue, d)
			res := pers.Compile(f.Name, f.Source, f.Lang)
			if !res.OK || res.Object == nil {
				fmt.Fprint(h, "compile-failed\n")
				continue
			}
			r := Run(res.Object, Options{})
			fmt.Fprintf(h, "%d|%q|%q|%s|%d\n", r.ReturnCode, r.Stdout, r.Stderr, r.Trap, r.Steps)
		}
	}
	got := fmt.Sprintf("files %d\nsha256 %s\n", n, hex.EncodeToString(h.Sum(nil)))
	want, err := os.ReadFile("testdata/exec_digest.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("execution digest changed:\n got: %s\nwant: %s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
