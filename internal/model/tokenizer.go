// Package model implements the simulated code LLM standing in for
// deepseek-coder-33B-instruct. The paper's experiments measure the
// interaction between a fallible judge and its prompts/tools, not the
// internals of a transformer, so the simulation keeps every externally
// observable property — prompt-dependent behaviour, stochastic
// verdicts with calibrated per-category error rates, free-text
// rationales ending in the exact "FINAL JUDGEMENT" phrase — while the
// underlying "reasoning" is a transparent pipeline: tokenize, score
// plausibility with an n-gram language model, extract structural
// features, and sample a verdict from a calibration table fitted to
// the paper's measured accuracies (see EXPERIMENTS.md for the fit).
//
// The only entry point is Model.Complete(prompt), the same contract a
// real LLM endpoint would have; the judge package never passes
// structured data.
package model

import "strings"

// TokenKind classifies a code token for the tokenizer.
type TokenKind int

const (
	TokWord TokenKind = iota
	TokNumber
	TokString
	TokOp
	TokComment
)

// Token is one lexical unit of code text.
type Token struct {
	Kind TokenKind
	Text string
}

// Tokenize splits code text the way a code-LM tokenizer coarsely
// would: identifiers (split at underscores and camelCase boundaries),
// numbers, strings, comments and operator runs.
func Tokenize(src string) []Token {
	var toks []Token
	scan(src, func(kind TokenKind, text string) {
		if kind == TokWord {
			text = strings.ToLower(text)
		}
		toks = append(toks, Token{Kind: kind, Text: text})
	})
	return toks
}

// countTokens returns len(Tokenize(src)) without building the tokens:
// the feature extractor only needs the count.
func countTokens(src string) int {
	n := 0
	scan(src, func(TokenKind, string) { n++ })
	return n
}

// scan is the tokenizer's one walk over src: it calls emit for every
// token in order. Word tokens are emitted as they appear in src; the
// lower-casing of subwords is Tokenize's concern.
func scan(src string, emit func(kind TokenKind, text string)) {
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			j := i
			for j < n && src[j] != '\n' {
				j++
			}
			emit(TokComment, src[i:j])
			i = j
		case c == '/' && i+1 < n && src[i+1] == '*':
			j := i + 2
			for j+1 < n && !(src[j] == '*' && src[j+1] == '/') {
				j++
			}
			if j+1 < n {
				j += 2
			}
			emit(TokComment, src[i:j])
			i = j
		case c == '!' && isFortranCommentStart(src, i):
			j := i
			for j < n && src[j] != '\n' {
				j++
			}
			emit(TokComment, src[i:j])
			i = j
		case c == '"' || c == '\'':
			q := c
			j := i + 1
			for j < n && src[j] != q {
				if src[j] == '\\' && j+1 < n {
					j++
				}
				j++
			}
			if j < n {
				j++
			}
			emit(TokString, src[i:j])
			i = j
		case isDigit(c):
			j := i
			for j < n && (isDigit(src[j]) || src[j] == '.' || src[j] == 'x' ||
				src[j] == 'e' || src[j] == 'E' || src[j] == 'f' || src[j] == 'L') {
				j++
			}
			emit(TokNumber, src[i:j])
			i = j
		case isWordStart(c):
			j := i
			for j < n && isWordCont(src[j]) {
				j++
			}
			subWords(src[i:j], emit)
			i = j
		default:
			j := i
			for j < n && !isWordStart(src[j]) && !isDigit(src[j]) &&
				src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != '\r' &&
				src[j] != '"' && src[j] != '\'' {
				j++
			}
			if j == i {
				j++
			}
			emit(TokOp, src[i:j])
			i = j
		}
	}
}

// isFortranCommentStart distinguishes Fortran comments from the C
// logical-not operator: a '!' at line start (possibly after spaces) in
// a file context is a comment; mid-expression it is an operator. The
// tokenizer only needs a heuristic: '!' followed by a space or '$'.
func isFortranCommentStart(src string, i int) bool {
	if i+1 >= len(src) {
		return false
	}
	next := src[i+1]
	return next == '$' || next == ' '
}

// subWords splits a long identifier at underscores and camelCase
// boundaries, mimicking BPE-style subword segmentation, and emits each
// piece as a word token. An identifier with no piece (all
// underscores) is emitted whole.
func subWords(w string, emit func(TokenKind, string)) {
	start := 0
	emitted := false
	flush := func(end int) {
		if end > start {
			emit(TokWord, w[start:end])
			emitted = true
		}
	}
	for i := 1; i < len(w); i++ {
		if w[i] == '_' {
			flush(i)
			start = i + 1
			continue
		}
		if isUpper(w[i]) && !isUpper(w[i-1]) && w[i-1] != '_' {
			flush(i)
			start = i
		}
	}
	flush(len(w))
	if !emitted {
		emit(TokWord, w)
	}
}

func isDigit(c byte) bool     { return c >= '0' && c <= '9' }
func isUpper(c byte) bool     { return c >= 'A' && c <= 'Z' }
func isWordStart(c byte) bool { return c == '_' || c == '#' || (c|0x20 >= 'a' && c|0x20 <= 'z') }
func isWordCont(c byte) bool  { return isWordStart(c) || isDigit(c) }
