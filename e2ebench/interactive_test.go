package main

import (
	"errors"
	"testing"
)

// TestInteractiveOutcome checks the open loop's correctness gate: a
// refused request leaves the digest equal to the reference, a wrong
// answer changes it.
func TestInteractiveOutcome(t *testing.T) {
	prompts := []string{"p0", "p1", "p2"}
	e := &interEnv{prompts: prompts, want: map[string]string{}}
	for _, p := range prompts {
		e.want[p] = responseLine(p, "answer to "+p)
	}
	ref := e.outcome(nil)
	ok := func(p string) sent { return sent{prompt: p, resp: "answer to " + p} }
	refused := func(p string) sent { return sent{prompt: p, err: errors.New("refused")} }

	cases := []struct {
		name    string
		answers []sent
		match   bool
	}{
		{"all answered", []sent{ok("p0"), ok("p1"), ok("p2")}, true},
		{"answered twice", []sent{ok("p0"), ok("p1"), ok("p2"), ok("p0")}, true},
		{"one refused", []sent{ok("p0"), refused("p1"), ok("p2")}, true},
		{"refused then answered", []sent{refused("p1"), ok("p0"), ok("p1"), ok("p2")}, true},
		{"wrong answer", []sent{ok("p0"), {prompt: "p1", resp: "wrong"}, ok("p2")}, false},
		{"wrong once of twice", []sent{ok("p0"), ok("p1"), {prompt: "p1", resp: "wrong"}, ok("p2")}, false},
	}
	for _, c := range cases {
		got := e.outcome(c.answers)
		if match := got.diff(ref) == ""; match != c.match {
			t.Errorf("%s: digest matches reference = %v, want %v", c.name, match, c.match)
		}
	}
}
