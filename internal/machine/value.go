// Package machine executes compiled test programs. It is the
// simulation of the paper's execution substrate (a GPU node running
// compiled OpenACC/OpenMP binaries): a tree-walking interpreter over
// the checked AST with
//
//   - a host/device memory model with presence tracking, explicit and
//     implicit data movement, and the dialect-specific strictness that
//     drives the pipeline results (OpenACC performs implicit copies for
//     unmapped aggregates; OpenMP 4.5 traps on unmapped device
//     accesses);
//   - goroutine-backed parallel execution of compute constructs with
//     privatization, reductions, atomics and critical sections;
//   - a trap model producing the return codes and stderr text a real
//     run would hand the agent-based judge (segfaults, device presence
//     faults, step-limit kills, abort).
//
// Data layout: a value is 32 bytes (one uint64 for an int, a float's
// bits or a ref's offset, plus a block pointer, a string pointer, a
// kind and a rank). A ref's dims are the last rank dims of its block;
// a device mirror shares its host's dims. A Block or for statement
// opens a scope only at its first declaration, and a scope (small
// parallel names/cells slices) is written only by the goroutine that
// created it. Race-detector builds run region workers serially
// (race_on.go), so the detector cannot check that rule.
package machine

import (
	"fmt"
	"math"

	"repro/internal/testlang"
)

// kind tags a runtime value.
type kind uint8

const (
	kInt kind = iota
	kFloat
	kStr
	kRef
	kNull
)

// value is one runtime value, 32 bytes: it is returned by every eval
// and is the size of every array cell. bits holds an int, a float's
// IEEE-754 bits or a ref's element offset; blk and rank hold the rest
// of a ref; s points at a string literal in the AST or at a
// package-level name (strings appear only as printf arguments).
type value struct {
	bits uint64
	blk  *block
	s    *string
	k    kind
	rank uint32
}

// ref is a pointer into a block: an element offset plus a rank, the
// number of trailing declared dimensions of the block the view still
// spans (indexing strips one per step; 0 is a plain element pointer).
type ref struct {
	blk  *block
	off  int
	rank int
}

// dims returns the view's dimensions: a suffix of the block's.
func (r ref) dims() []int { return r.blk.dims[len(r.blk.dims)-r.rank:] }

// block is one allocation: a declared array, a heap allocation, or a
// device mirror of either.
type block struct {
	cells []value
	elem  testlang.Type
	// dims are a declared array's dimensions (nil for heap blocks); a
	// device mirror shares its host's. Refs into the block name a
	// suffix of them by rank.
	dims []int
	// byteSize is remembered for heap blocks allocated before their
	// element type is known (malloc result not yet cast/assigned).
	byteSize int64
	// materialized reports whether cells have been sized.
	materialized bool
	freed        bool
	// onDevice marks device mirrors (for diagnostics).
	onDevice bool
	// name of the originating variable, for fault messages.
	name string
}

func intVal(i int64) value      { return value{k: kInt, bits: uint64(i)} }
func floatVal(f float64) value  { return value{k: kFloat, bits: math.Float64bits(f)} }
func strVal(s *string) value    { return value{k: kStr, s: s} }
func nullVal() value            { return value{k: kNull} }
func (v value) i() int64        { return int64(v.bits) }
func (v value) f() float64      { return math.Float64frombits(v.bits) }
func (v value) isNullPtr() bool { return v.k == kNull || (v.k == kInt && v.bits == 0) }

// str returns a string value's text ("" for any other value).
func (v value) str() string {
	if v.s == nil {
		return ""
	}
	return *v.s
}

// Names the interpreter hands out as string values.
var (
	stderrName = "<stderr>"
	stdoutName = "<stdout>"
)

// refVal builds a ref value. A rank beyond the block's declared
// dimensions breaks the view invariant and panics; Run would report
// that panic as a simulated segfault, so tests call refVal directly.
func refVal(r ref) value {
	if r.rank < 0 || r.rank > len(r.blk.dims) {
		panic(fmt.Sprintf("machine: ref rank %d exceeds the dims of block %q", r.rank, r.blk.name))
	}
	return value{k: kRef, bits: uint64(int64(r.off)), blk: r.blk, rank: uint32(r.rank)}
}

// refOf unpacks a ref value.
func refOf(v value) (ref, bool) {
	if v.k != kRef {
		return ref{}, false
	}
	return ref{blk: v.blk, off: int(int64(v.bits)), rank: int(v.rank)}, true
}

// zeroValue returns the zero of a declared type. The simulation gives
// deterministic zeros to uninitialised scalars (documented divergence
// from C's undefined behaviour, in the direction real test suites
// rely on) and null to uninitialised pointers (the behaviour the
// negative-probing "removed allocation" mutation needs).
func zeroValue(t testlang.Type) value {
	if t.Ptr > 0 {
		return nullVal()
	}
	if t.IsFloat() {
		return floatVal(0)
	}
	return intVal(0)
}

// sizeOf returns the modelled byte size of a scalar type.
func sizeOf(t testlang.Type) int64 {
	if t.Ptr > 0 {
		return 8
	}
	switch t.Base {
	case "double", "long":
		return 8
	case "char", "bool":
		return 1
	default: // int, float, void
		return 4
	}
}

// asFloat coerces a numeric value to float64.
func (v value) asFloat() float64 {
	switch v.k {
	case kFloat:
		return v.f()
	case kInt:
		return float64(v.i())
	default:
		return 0
	}
}

// asInt coerces a numeric value to int64 (floats truncate as in C).
func (v value) asInt() int64 {
	switch v.k {
	case kInt:
		return v.i()
	case kFloat:
		return int64(v.f())
	case kNull:
		return 0
	default:
		return 0
	}
}

// truthy implements C truthiness.
func (v value) truthy() bool {
	switch v.k {
	case kInt:
		return v.i() != 0
	case kFloat:
		return v.f() != 0
	case kRef:
		return true
	case kStr:
		return true
	default:
		return false
	}
}

func (v value) String() string {
	switch v.k {
	case kInt:
		return fmt.Sprintf("%d", v.i())
	case kFloat:
		return fmt.Sprintf("%g", v.f())
	case kStr:
		return v.str()
	case kRef:
		return fmt.Sprintf("<%s+%d>", v.blk.name, int64(v.bits))
	default:
		return "<null>"
	}
}

// convertTo coerces v to a declared scalar type on assignment,
// mirroring C's implicit conversions.
func convertTo(v value, t testlang.Type) value {
	if t.Ptr > 0 {
		return v // pointer assignment keeps refs/null
	}
	if t.IsFloat() {
		return floatVal(v.asFloat())
	}
	if t.Base == "int" || t.Base == "long" || t.Base == "char" || t.Base == "bool" {
		iv := v.asInt()
		switch t.Base {
		case "char":
			iv = int64(int8(iv))
		case "int":
			iv = int64(int32(iv))
		case "bool":
			if iv != 0 {
				iv = 1
			}
		}
		return intVal(iv)
	}
	return v
}

// maxBlockCells bounds one allocation: a declared array of more cells
// traps with bad-alloc, and malloc/calloc of more bytes returns NULL
// (a heap block holds at most one cell per byte). Without it one
// declaration such as int a[65536][65536] would exhaust the memory of
// the whole process rather than fail the one run.
const maxBlockCells = 1 << 24

// newArrayBlock allocates a declared array.
func newArrayBlock(name string, elem testlang.Type, dims []int) *block {
	n := 1
	for _, d := range dims {
		n *= d
	}
	b := &block{elem: elem, dims: dims, materialized: true, name: name}
	b.cells = make([]value, n)
	zero := zeroValue(elem)
	for i := range b.cells {
		b.cells[i] = zero
	}
	return b
}

// newHeapBlock allocates a malloc-style block whose element type is
// fixed later (at cast or typed assignment).
func newHeapBlock(bytes int64) *block {
	return &block{byteSize: bytes, name: "heap"}
}

// materialize sizes a heap block's cells for element type t. Calling
// it again with the same element size is a no-op; C-level type puns
// between same-size types share cells.
func (b *block) materialize(t testlang.Type) {
	if b.materialized {
		return
	}
	es := sizeOf(testlang.Type{Base: t.Base})
	n := b.byteSize / es
	if n < 0 {
		n = 0
	}
	b.elem = testlang.Type{Base: t.Base}
	b.cells = make([]value, n)
	zero := zeroValue(b.elem)
	for i := range b.cells {
		b.cells[i] = zero
	}
	b.materialized = true
}

// cell is one variable binding; sharing a *cell shares the variable.
type cell struct {
	v value
}

// env is one lexical scope: parallel names/cells slices, scanned
// newest-first, with storage allocated on the first declaration. A
// scope is written only by the goroutine that created it; worker
// goroutines read enclosing scopes and declare into their own.
type env struct {
	parent *env
	names  []string
	cells  []*cell
}

func newEnv(parent *env) *env {
	return &env{parent: parent}
}

// local finds name in this scope only.
func (e *env) local(name string) (*cell, bool) {
	for i := len(e.names) - 1; i >= 0; i-- {
		if e.names[i] == name {
			return e.cells[i], true
		}
	}
	return nil, false
}

func (e *env) lookup(name string) (*cell, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if c, ok := cur.local(name); ok {
			return c, true
		}
	}
	return nil, false
}

func (e *env) declare(name string, v value) *cell {
	c := &cell{v: v}
	e.bind(name, c)
	return c
}

// bind inserts an existing cell under a name (used for privatization
// overlays and device rebinding), replacing this scope's binding of
// the same name if there is one.
func (e *env) bind(name string, c *cell) {
	for i := len(e.names) - 1; i >= 0; i-- {
		if e.names[i] == name {
			e.cells[i] = c
			return
		}
	}
	e.names = append(e.names, name)
	e.cells = append(e.cells, c)
}
