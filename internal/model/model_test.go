package model

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/spec"
)

const validTestCode = `// acc_demo_0001.c
#include <stdio.h>
#include <stdlib.h>
#define N 128

int main()
{
    int *a = (int *)malloc(N * sizeof(int));
    long sum = 0;
    long expect = 0;
    for (int i = 0; i < N; i++) {
        a[i] = i;
        expect += i;
    }
#pragma acc parallel loop copyin(a[0:N]) reduction(+:sum)
    for (int i = 0; i < N; i++) {
        sum += a[i];
    }
    free(a);
    if (sum != expect) {
        printf("FAIL\n");
        return 1;
    }
    printf("PASS\n");
    return 0;
}
`

func directPrompt(d spec.Dialect, code string) string {
	return "Review the following " + d.String() + ` code and evaluate it based on the following criteria:
Syntax: ...
Based on these criteria, evaluate the code in a brief summary, then respond with precisely "FINAL JUDGEMENT: correct" (or incorrect).
Here is the code:
` + code
}

func agentPrompt(d spec.Dialect, code string, compileRC, runRC int, stderr string) string {
	return `Syntax: Ensure all ` + d.String() + ` directives and pragmas are syntactically correct.
Based on these criteria, evaluate the code and determine if it is a valid or invalid test. Think step by step.
You MUST include the exact phrase, "FINAL JUDGEMENT: valid" in your response if you deem the test to be valid.
Here is some information about the code to help you.
When compiled with a compliant ` + d.String() + ` compiler, the below code causes the following outputs:
Compiler return code: ` + itoa(compileRC) + `
Compiler STDERR: ` + stderr + `
Compiler STDOUT:
When the compiled code is run, it gives the following results:
Return code: ` + itoa(runRC) + `
STDERR:
STDOUT: PASS
Here is the code:
` + code
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestTokenizerBasics(t *testing.T) {
	toks := Tokenize(`int main() { return camelCaseName + snake_case_name; } // done`)
	var words []string
	comments := 0
	for _, tok := range toks {
		switch tok.Kind {
		case TokWord:
			words = append(words, tok.Text)
		case TokComment:
			comments++
		}
	}
	joined := strings.Join(words, " ")
	for _, want := range []string{"camel", "case", "name", "snake"} {
		if !strings.Contains(joined, want) {
			t.Errorf("subword %q missing from %q", want, joined)
		}
	}
	if comments != 1 {
		t.Errorf("comments = %d, want 1", comments)
	}
}

func TestTokenizerNeverPanics(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		_ = Tokenize(s)
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCountTokensMatchesTokenize: the feature path's token count is
// the length of the token list, for every generated source and a few
// degenerate texts (an all-underscore identifier is one word; a
// string cut off after a backslash ends at the end of the text).
func TestCountTokensMatchesTokenize(t *testing.T) {
	texts := append(scoringTexts(), "_", "__ a__b", "/* open", `"open`, `"open\`, "!$acc x", "CamelCase_x9y")
	for i, src := range texts {
		if got, want := countTokens(src), len(Tokenize(src)); got != want {
			t.Fatalf("text %d: countTokens = %d, len(Tokenize) = %d", i, got, want)
		}
	}
}

func TestNGramSeparatesCodeFromGarbage(t *testing.T) {
	ng := NewNGram()
	code := ng.Score(validTestCode)
	garbage := ng.Score("flarb quon ##  <<< zeta:: }{ @ BEGIN ;;; ::= ->> ~~>")
	if code <= garbage {
		t.Fatalf("plausibility failed to separate: code=%v garbage=%v", code, garbage)
	}
}

func TestFeatureExtractionCleanFile(t *testing.T) {
	ft := ExtractFeatures(validTestCode, spec.OpenACC, NewNGram())
	if ft.DirectiveLines != 1 || ft.UnknownDirectives != 0 {
		t.Fatalf("directives = %d/%d", ft.DirectiveLines, ft.UnknownDirectives)
	}
	if ft.ParseBroken || ft.UndeclaredUse {
		t.Fatalf("clean file misperceived: %+v", ft)
	}
	if !ft.HasCheckLogic || !ft.HasComputeLoop {
		t.Fatalf("check/compute not detected: %+v", ft)
	}
	if Categorize(ft) != CatClean {
		t.Fatalf("category = %v", Categorize(ft))
	}
}

func TestFeaturePerceptionPerMutationShape(t *testing.T) {
	ng := NewNGram()
	cases := []struct {
		name string
		mut  func(string) string
		want Category
	}{
		{"swap", func(s string) string {
			return strings.Replace(s, "acc parallel loop", "acc paralel loop", 1)
		}, CatDirective},
		{"bracket", func(s string) string {
			return strings.Replace(s, "int main()\n{", "int main()\n", 1)
		}, CatSyntax},
		{"undeclared", func(s string) string {
			return strings.Replace(s, "sum += a[i];", "sum += a[i];\n        ghost_var = ghost_var + 1;", 1)
		}, CatUndeclared},
		{"truncated", func(s string) string {
			return strings.Replace(s, `    if (sum != expect) {
        printf("FAIL\n");
        return 1;
    }
`, "", 1)
		}, CatLogic},
		{"random", func(string) string {
			return "#include <stdio.h>\nint main() { printf(\"hi\\n\"); return 0; }\n"
		}, CatNoDirectives},
		{"clause-removal-looks-clean", func(s string) string {
			return strings.Replace(s, " copyin(a[0:N])", "", 1)
		}, CatClean},
	}
	for _, c := range cases {
		ft := ExtractFeatures(c.mut(validTestCode), spec.OpenACC, ng)
		if got := Categorize(ft); got != c.want {
			t.Errorf("%s: category = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFailClosedWithoutSuccessPathIsLogic(t *testing.T) {
	src := strings.Replace(validTestCode, `    if (sum != expect) {
        printf("FAIL\n");
        return 1;
    }
    printf("PASS\n");
    return 0;`, `    int status = 1;
    if (sum != expect) {
        printf("FAIL\n");
    }
    return status;`, 1)
	ft := ExtractFeatures(src, spec.OpenACC, nil)
	if ft.HasCheckLogic {
		t.Fatal("fail-closed file with no success path should read as broken logic")
	}
}

func TestModelDeterminism(t *testing.T) {
	m1, m2 := New(7), New(7)
	p := directPrompt(spec.OpenACC, validTestCode)
	if m1.Complete(p) != m2.Complete(p) {
		t.Fatal("same seed, same prompt, different completion")
	}
	m3 := New(8)
	same := 0
	for i := 0; i < 20; i++ {
		code := strings.Replace(validTestCode, "0001", itoa(i), 1)
		if m1.Complete(directPrompt(spec.OpenACC, code)) == m3.Complete(directPrompt(spec.OpenACC, code)) {
			same++
		}
	}
	if same == 20 {
		t.Fatal("different seeds never diverged")
	}
}

func TestCompleteContainsExactPhrase(t *testing.T) {
	m := New(1)
	for i := 0; i < 10; i++ {
		code := strings.Replace(validTestCode, "0001", itoa(i), 1)
		resp := m.Complete(directPrompt(spec.OpenACC, code))
		if !strings.Contains(resp, "FINAL JUDGEMENT: correct") && !strings.Contains(resp, "FINAL JUDGEMENT: incorrect") {
			t.Fatalf("direct response lacks correct/incorrect phrase:\n%s", resp)
		}
		resp = m.Complete(agentPrompt(spec.OpenACC, code, 0, 0, ""))
		if !strings.Contains(resp, "FINAL JUDGEMENT: valid") && !strings.Contains(resp, "FINAL JUDGEMENT: invalid") {
			t.Fatalf("agent response lacks valid/invalid phrase:\n%s", resp)
		}
	}
}

func TestStyleDetection(t *testing.T) {
	m := New(2)
	j, _ := m.Judge(directPrompt(spec.OpenMP, validTestCode))
	if j.Style != StyleDirect {
		t.Fatalf("style = %v, want direct", j.Style)
	}
	j, _ = m.Judge(agentPrompt(spec.OpenMP, validTestCode, 0, 0, ""))
	if j.Style != StyleAgentDirect {
		t.Fatalf("style = %v, want agent-direct", j.Style)
	}
	indirect := "Describe what the below OpenMP program will do when run. Think step by step.\n" +
		"Here is some information about the code to help you; you do not have to compile or run the code yourself.\n" +
		"Compiler return code: 0\nCompiler STDERR: \nCompiler STDOUT: \n" +
		"When the compiled code is run, it gives the following results:\nReturn code: 0\nSTDOUT: \nSTDERR: \n" +
		"Here is the code for you to analyze:\n" + validTestCode
	j, _ = m.Judge(indirect)
	if j.Style != StyleAgentIndirect {
		t.Fatalf("style = %v, want agent-indirect", j.Style)
	}
}

func TestDialectDetection(t *testing.T) {
	m := New(3)
	j, _ := m.Judge(directPrompt(spec.OpenMP, validTestCode))
	if j.Dialect != spec.OpenMP {
		t.Fatalf("dialect = %v", j.Dialect)
	}
	j, _ = m.Judge(directPrompt(spec.OpenACC, validTestCode))
	if j.Dialect != spec.OpenACC {
		t.Fatalf("dialect = %v", j.Dialect)
	}
}

func TestToolStateParsing(t *testing.T) {
	m := New(4)
	cases := []struct {
		compileRC, runRC int
		stderr           string
		want             ToolState
	}{
		{0, 0, "", ToolClean},
		{0, 1, "", ToolRunFail},
		{1, 0, "nvc t.c:3: error: use of undeclared identifier \"x\"\nnvc: 1 error(s) generated.", ToolCompileFail},
		{1, 0, "nvc t.c:3: error: tile clause is not supported by this accelerator target\nnvc: 1 error(s) generated.", ToolCompileFailSupport},
		{1, 0, "nvc t.c:3: error: tile clause is not supported by this target\nnvc t.c:9: error: unknown directive \"paralel\"\nnvc: 2 error(s) generated.", ToolCompileFail},
	}
	for _, c := range cases {
		j, _ := m.Judge(agentPrompt(spec.OpenACC, validTestCode, c.compileRC, c.runRC, c.stderr))
		if j.Tool != c.want {
			t.Errorf("compileRC=%d runRC=%d stderr=%q: tool = %v, want %v",
				c.compileRC, c.runRC, c.stderr, j.Tool, c.want)
		}
	}
}

func TestDirectStyleIgnoresToolMarkers(t *testing.T) {
	m := New(5)
	j, _ := m.Judge(directPrompt(spec.OpenACC, validTestCode))
	if j.Tool != ToolNone {
		t.Fatalf("direct prompt tool state = %v, want none", j.Tool)
	}
}

// TestCalibratedRates verifies the decision head actually samples at
// the configured probability: the no-directive detection asymmetry is
// the paper's most dramatic direct-prompt finding (80% ACC vs 4% OMP).
func TestCalibratedRates(t *testing.T) {
	m := New(6)
	plainC := "#include <stdio.h>\nint compute(int v) { return v * 3; }\nint main() { printf(\"%d\\n\", compute(VARIANT)); return 0; }\n"
	trial := func(d spec.Dialect) float64 {
		invalid := 0
		const n = 400
		for i := 0; i < n; i++ {
			code := strings.Replace(plainC, "VARIANT", itoa(i), 1)
			j, _ := m.Judge(directPrompt(d, code))
			if j.Category != CatNoDirectives {
				t.Fatalf("plain C perceived as %v", j.Category)
			}
			if j.Invalid {
				invalid++
			}
		}
		return float64(invalid) / n
	}
	acc := trial(spec.OpenACC)
	omp := trial(spec.OpenMP)
	if acc < 0.7 || acc > 0.9 {
		t.Errorf("ACC no-directive detection rate = %v, want ~0.80", acc)
	}
	if omp > 0.10 {
		t.Errorf("OMP no-directive detection rate = %v, want ~0.03", omp)
	}
}

func TestRationaleMentionsFindings(t *testing.T) {
	m := New(9)
	swapped := strings.Replace(validTestCode, "acc parallel loop", "acc paralel loop", 1)
	// Sample until the verdict is invalid so the rationale references
	// the unknown directive confidently.
	found := false
	for i := 0; i < 50 && !found; i++ {
		code := strings.Replace(swapped, "0001", itoa(i), 1)
		j, resp := m.Judge(agentPrompt(spec.OpenACC, code, 1, 0, "nvc t.c:9: error: unknown directive\nnvc: 1 error(s) generated."))
		if j.Category == CatDirective && strings.Contains(resp, "paralel") {
			found = true
		}
	}
	if !found {
		t.Fatal("rationales never mention the misspelled directive")
	}
}

func TestFortranFeatureExtraction(t *testing.T) {
	src := `program t
    implicit none
    integer :: i, s
    s = 0
    !$acc parallel loop reduction(+:s)
    do i = 1, 100
        s = s + i
    end do
    if (s /= 5050) then
        stop 1
    end if
end program t
`
	ft := ExtractFeatures(src, spec.OpenACC, nil)
	if !ft.IsFortran {
		t.Fatal("Fortran not detected")
	}
	if ft.DirectiveLines != 1 || ft.UnknownDirectives != 0 {
		t.Fatalf("directives = %d/%d", ft.DirectiveLines, ft.UnknownDirectives)
	}
	if !ft.HasCheckLogic {
		t.Fatal("stop 1 check logic not detected")
	}
	bad := strings.Replace(src, "s = s + i", "s = s + undeclared_thing", 1)
	ft = ExtractFeatures(bad, spec.OpenACC, nil)
	if !ft.UndeclaredUse {
		t.Fatal("Fortran undeclared use not detected")
	}
	if Categorize(ft) != CatUndeclared {
		t.Fatalf("category = %v", Categorize(ft))
	}
}

func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Tokenize(validTestCode)
	}
}

func BenchmarkNGramScore(b *testing.B) {
	ng := NewNGram()
	for i := 0; i < b.N; i++ {
		_ = ng.Score(validTestCode)
	}
}

func BenchmarkJudgeCompletion(b *testing.B) {
	m := New(1)
	p := agentPrompt(spec.OpenACC, validTestCode, 0, 0, "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Complete(p)
	}
}
