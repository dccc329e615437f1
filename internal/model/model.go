package model

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/spec"
)

// Model is the simulated deepseek-coder-33B-instruct endpoint. One
// Model serves all prompting styles; behavioural differences between
// the paper's LLMJ configurations come entirely from the prompt, as
// they did on the real model.
type Model struct {
	seed uint64
}

// New returns a model with the given sampling seed. Equal seeds give
// bit-identical behaviour. Every Model scores with the one shared,
// read-only n-gram and reads features through the one shared memo,
// so models judging the same code at once (panel seats) extract it
// once.
func New(seed uint64) *Model {
	return &Model{seed: seed}
}

// Judgment is the structured trace of one completion, exposed for
// experiments and tests; callers that want the LLM contract use only
// the text from Complete.
type Judgment struct {
	Style    Style
	Dialect  spec.Dialect
	Category Category
	Tool     ToolState
	PInvalid float64
	Invalid  bool
	Features Features
}

// Complete runs the model on a prompt and returns the full response
// text: test code for generation prompts, a rationale ending in the
// exact FINAL JUDGEMENT phrase for judging prompts.
func (m *Model) Complete(prompt string) string {
	if IsGenerationPrompt(prompt) {
		code, _ := m.GenerateTest(prompt)
		return code
	}
	_, text := m.Judge(prompt)
	return text
}

// CompleteBatch runs the model on a whole shard of prompts in one
// call (the judge.BatchLLM contract). Every response is identical to
// what Complete would return for the same prompt — each completion is
// a pure function of (seed, prompt) — so batch submission changes
// scheduling and overhead, never verdicts. The context is checked
// between completions so a cancelled shard stops promptly.
func (m *Model) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	out := make([]string, len(prompts))
	for i, p := range prompts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = m.Complete(p)
	}
	return out, nil
}

// Judge runs the model and also returns the structured trace.
func (m *Model) Judge(prompt string) (Judgment, string) {
	head, code := splitPrompt(prompt)
	d := detectDialect(head)
	style := detectStyle(head)
	tool := ToolNone
	if style != StyleDirect {
		tool = parseToolInfo(head)
	}
	ft := sharedFeatures.get(code, d)
	cat := Categorize(ft)
	p := calibrationFor(style, d).pInvalid(cat, tool)
	coin := rng.New(m.seed).Split(prompt)
	invalid := coin.Bool(p)
	j := Judgment{
		Style:    style,
		Dialect:  d,
		Category: cat,
		Tool:     tool,
		PInvalid: p,
		Invalid:  invalid,
		Features: ft,
	}
	return j, m.respond(j, coin)
}

// splitPrompt separates the instruction head from the code block.
func splitPrompt(prompt string) (head, code string) {
	idx := strings.LastIndex(prompt, "Here is the code")
	if idx < 0 {
		return prompt, ""
	}
	head = prompt[:idx]
	rest := prompt[idx:]
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		code = rest[nl+1:]
	}
	return head, code
}

func detectDialect(head string) spec.Dialect {
	acc := strings.Count(head, "OpenACC")
	omp := strings.Count(head, "OpenMP")
	if omp > acc {
		return spec.OpenMP
	}
	return spec.OpenACC
}

func detectStyle(head string) Style {
	if strings.Contains(head, "Describe what the below") {
		return StyleAgentIndirect
	}
	if strings.Contains(head, "information about the code to help you") {
		return StyleAgentDirect
	}
	return StyleDirect
}

// parseToolInfo reads the compiler/run block of an agent prompt.
func parseToolInfo(head string) ToolState {
	compileRC, okC := intAfter(head, "Compiler return code:")
	if !okC {
		return ToolNone
	}
	compileErr := sectionAfter(head, "Compiler STDERR:", []string{"Compiler STDOUT:", "When the compiled"})
	if compileRC != 0 {
		if allErrorsAreSupportGaps(compileErr) {
			return ToolCompileFailSupport
		}
		return ToolCompileFail
	}
	// Run section: the first "Return code:" after the run preamble.
	runPart := head
	if i := strings.Index(head, "the compiled code is run"); i >= 0 {
		runPart = head[i:]
	}
	runRC, okR := intAfter(runPart, "Return code:")
	if okR && runRC != 0 {
		return ToolRunFail
	}
	return ToolClean
}

// allErrorsAreSupportGaps reports whether every error line of a
// compiler stderr reads as a toolchain limitation rather than a defect
// of the test. A single ordinary error (unknown directive, undeclared
// identifier) makes the whole failure an ordinary one.
func allErrorsAreSupportGaps(stderr string) bool {
	sawError := false
	for _, line := range strings.Split(stderr, "\n") {
		low := strings.ToLower(line)
		if !strings.Contains(low, "error") || strings.Contains(low, "error(s) generated") {
			continue
		}
		sawError = true
		if !strings.Contains(low, "not supported") && !strings.Contains(low, "not implemented") {
			return false
		}
	}
	return sawError
}

func intAfter(text, marker string) (int, bool) {
	i := strings.Index(text, marker)
	if i < 0 {
		return 0, false
	}
	rest := strings.TrimSpace(text[i+len(marker):])
	end := 0
	if end < len(rest) && (rest[end] == '-' || rest[end] == '+') {
		end++
	}
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	v, err := strconv.Atoi(strings.TrimSpace(rest[:end]))
	if err != nil {
		return 0, false
	}
	return v, true
}

func sectionAfter(text, marker string, terminators []string) string {
	i := strings.Index(text, marker)
	if i < 0 {
		return ""
	}
	rest := text[i+len(marker):]
	end := len(rest)
	for _, t := range terminators {
		if j := strings.Index(rest, t); j >= 0 && j < end {
			end = j
		}
	}
	return strings.TrimSpace(rest[:end])
}

// respond generates the free-text rationale ending with the exact
// judgement phrase. Sentences are chosen to be consistent with the
// sampled verdict — including the characteristic rationalisations a
// permissive judge produces when it waves through a file whose tool
// output looked bad.
func (m *Model) respond(j Judgment, coin *rng.Source) string {
	var b strings.Builder
	ft := j.Features
	d := j.Dialect

	if j.Style == StyleAgentIndirect {
		fmt.Fprintf(&b, "Let me describe this %s program step by step.\n", d)
	} else {
		fmt.Fprintf(&b, "Let me review this %s code against the criteria.\n", d)
	}

	// Structure overview.
	fmt.Fprintf(&b, "The file spans %d lines (%d tokens)", ft.Lines, ft.TokenCount)
	if ft.DirectiveLines > 0 {
		fmt.Fprintf(&b, " and contains %d %s directive(s).\n", ft.DirectiveLines, d)
	} else {
		fmt.Fprintf(&b, " and contains no %s directives at all.\n", d)
	}
	if ft.HasComputeLoop {
		b.WriteString("It initialises data and performs a loop-based computation")
		if ft.HasCheckLogic {
			b.WriteString(", then compares the result against a serially computed reference and reports failure through the exit code.\n")
		} else {
			b.WriteString(", but I do not see a verification step that compares results and signals failure.\n")
		}
	}

	// Criterion-flavoured observations.
	switch j.Category {
	case CatSyntax:
		b.WriteString("Syntax: the code appears malformed — the brackets do not balance, so it cannot compile as written.\n")
	case CatUndeclared:
		fmt.Fprintf(&b, "Syntax: the identifier %q is used without any declaration I can find.\n", ft.FirstUndeclared)
	case CatDirective:
		fmt.Fprintf(&b, "Directive appropriateness: %q does not match any %s directive I know.\n", ft.FirstUnknown, d)
	case CatNoDirectives:
		if ft.Plausibility < -5.5 {
			fmt.Fprintf(&b, "The text does not resemble %s test code or even C at all.\n", d)
		} else {
			fmt.Fprintf(&b, "This looks like ordinary serial code; there is nothing exercising a %s implementation.\n", d)
		}
	case CatLogic:
		b.WriteString("Logic: the computation happens, but the test never verifies its output, which weakens it as a compiler test.\n")
	default:
		fmt.Fprintf(&b, "Syntax and clause usage look consistent with the %s specification.\n", d)
	}

	// Tool-output commentary (agent styles only).
	switch j.Tool {
	case ToolCompileFail:
		b.WriteString("The compiler output shows a non-zero return code with errors.\n")
		if !j.Invalid {
			b.WriteString("However, the reported diagnostics may reflect compiler strictness rather than a defect in the test itself.\n")
		}
	case ToolCompileFailSupport:
		b.WriteString("The compiler rejected the code, but the message indicates an unsupported feature on this toolchain rather than an invalid test.\n")
	case ToolRunFail:
		b.WriteString("The program compiled but exited with a non-zero status when run.\n")
		if !j.Invalid {
			b.WriteString("That failure could stem from the execution environment rather than the test's construction.\n")
		}
	case ToolClean:
		b.WriteString("The compiler returned 0 and the program ran to completion with exit code 0.\n")
		if j.Invalid && j.Category == CatClean {
			b.WriteString("Even so, something about the test's construction leaves me unconvinced of its validity.\n")
		}
	}

	// Occasional filler the real model produces.
	if coin.Bool(0.3) {
		b.WriteString("Memory management between host and device follows the usual data-clause pattern for this kind of test.\n")
	}

	verdictWord := map[bool][2]string{
		true:  {"invalid", "incorrect"},
		false: {"valid", "correct"},
	}[j.Invalid]
	phrase := verdictWord[0]
	if j.Style == StyleDirect {
		phrase = verdictWord[1]
	}
	fmt.Fprintf(&b, "FINAL JUDGEMENT: %s\n", phrase)
	return b.String()
}
