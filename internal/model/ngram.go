package model

import (
	"math"
	"strings"
)

// NGram is a character-trigram language model with add-one smoothing,
// the simulated model's sense of whether text "looks like" the code it
// was trained on. It backs the plausibility feature: randomly
// generated garbage scores far below real directive tests, and the
// rationale generator quotes the score qualitatively.
//
// Train precomputes log2 of every probability Score can look up, so
// scoring adds table values instead of taking a logarithm per trigram.
// Score only reads, so concurrent Score calls are safe while no Train
// runs.
type NGram struct {
	counts   map[string]int
	context  map[string]int
	vocabLen int
	// logSeen holds log2 of each seen trigram's smoothed probability,
	// logUnseen log2 of an unseen trigram's probability after each seen
	// context, and logNovel the same after an unseen context. Keys are
	// packed by key3 and key2.
	logSeen   map[uint32]float64
	logUnseen map[uint32]float64
	logNovel  float64
}

// trainingCorpus is a small embedded sample of the kind of text a code
// LLM has absorbed: C with directives, Fortran, and reporting idioms.
// It is intentionally tiny — the model only needs relative plausibility.
const trainingCorpus = `
#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#define N 1024
int main() {
    double *a = (double *)malloc(N * sizeof(double));
    int errs = 0;
    for (int i = 0; i < N; i++) {
        a[i] = i * 0.5;
    }
#pragma acc parallel loop copyin(a[0:N]) reduction(+:sum)
#pragma acc data copy(a[0:N]) create(b[0:N])
#pragma acc enter data copyin(a[0:N])
#pragma acc update host(a[0:N])
#pragma omp parallel for reduction(+:total)
#pragma omp target teams distribute parallel for map(tofrom: a[0:N])
#pragma omp target data map(to: x[0:N]) map(from: y[0:N])
#pragma omp atomic
    for (int i = 0; i < N; i++) {
        sum += a[i] * b[i];
    }
    if (fabs(sum - expect) > 1e-9) {
        printf("FAIL: %d errors\n", errs);
        return 1;
    }
    printf("Test passed\n");
    free(a);
    return 0;
}
int helper(int x) { return x * x + 1; }
while (j < n) { j++; }
program vecadd
    use openacc
    implicit none
    integer, parameter :: n = 1024
    real(8) :: a(n), b(n)
    do i = 1, n
        c(i) = a(i) + b(i)
    end do
    !$acc parallel loop copyin(a, b) copyout(c)
    if (errs /= 0) then
        print *, "Test failed"
        stop 1
    end if
end program vecadd
`

// sharedNGram is the model every Model scores with: it is trained once
// on the constant embedded corpus and never trained again.
var sharedNGram = NewNGram()

// NewNGram trains the trigram model over the embedded corpus.
func NewNGram() *NGram {
	ng := &NGram{counts: map[string]int{}, context: map[string]int{}, vocabLen: 96}
	ng.Train(trainingCorpus)
	return ng
}

// Train adds text to the model and recomputes the log tables.
func (ng *NGram) Train(text string) {
	t := normalize(text)
	for i := 0; i+3 <= len(t); i++ {
		ng.counts[t[i:i+3]]++
		ng.context[t[i:i+2]]++
	}
	ng.logSeen = make(map[uint32]float64, len(ng.counts))
	for tri, c := range ng.counts {
		ng.logSeen[key3(tri)] = ng.log2p(c, ng.context[tri[:2]])
	}
	ng.logUnseen = make(map[uint32]float64, len(ng.context))
	for ctx, n := range ng.context {
		ng.logUnseen[key2(ctx)] = ng.log2p(0, n)
	}
	ng.logNovel = ng.log2p(0, 0)
}

// log2p is log2 of the add-one smoothed probability of a trigram seen
// c times after a context seen ctx times.
func (ng *NGram) log2p(c, ctx int) float64 {
	return math.Log2((float64(c) + 1) / (float64(ctx) + float64(ng.vocabLen)))
}

// key2 and key3 pack a two- or three-byte string into a map key.
func key2(s string) uint32 { return uint32(s[0])<<8 | uint32(s[1]) }

func key3(s string) uint32 { return uint32(s[0])<<16 | uint32(s[1])<<8 | uint32(s[2]) }

// Score returns the average per-trigram log2 probability of text;
// higher (less negative) is more plausible.
func (ng *NGram) Score(text string) float64 {
	t := normalize(text)
	if len(t) < 3 {
		return 0
	}
	total := 0.0
	n := 0
	for i := 0; i+3 <= len(t); i++ {
		lp, ok := ng.logSeen[key3(t[i:i+3])]
		if !ok {
			lp, ok = ng.logUnseen[key2(t[i:i+2])]
			if !ok {
				lp = ng.logNovel
			}
		}
		total += lp
		n++
	}
	return total / float64(n)
}

// normalize maps text onto the model's reduced alphabet: lower-case,
// digits folded to '9', runs of spaces collapsed.
func normalize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	prevSpace := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 32
		case c >= '0' && c <= '9':
			c = '9'
		case c == '\t' || c == '\r' || c == '\n':
			c = ' '
		}
		if c == ' ' {
			if prevSpace {
				continue
			}
			prevSpace = true
		} else {
			prevSpace = false
		}
		b.WriteByte(c)
	}
	return b.String()
}
