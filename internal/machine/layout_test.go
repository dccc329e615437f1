package machine

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/compiler"
	"repro/internal/spec"
	"repro/internal/testlang"
)

func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(value{}); n != 32 {
		t.Fatalf("value is %d bytes, want 32", n)
	}
}

// prelude runs every statement of main's body but the last, which must
// be a directive, in a fresh interpreter, and returns the exec holding
// main's locals plus that directive. The statements run outside Run,
// so a panic in the value helpers fails the test instead of turning
// into a simulated segfault.
func prelude(t *testing.T, d spec.Dialect, src string) (*exec, *testlang.DirectiveStmt) {
	t.Helper()
	res := compiler.Reference(d).Compile("t.c", src, testlang.LangC)
	if !res.OK {
		t.Fatalf("compile failed:\n%s", res.Stderr)
	}
	in := &interp{obj: res.Object, opts: Options{Workers: 1, StepLimit: DefaultStepLimit, OutputLimit: DefaultOutputLimit},
		presence: map[*block]*presenceEntry{}}
	in.globals = newEnv(nil)
	ex := &exec{in: in, env: newEnv(in.globals), scoped: true}
	body := res.Object.Funcs["main"].Body.Stmts
	for _, st := range body[:len(body)-1] {
		ex.execStmt(st)
	}
	ds, ok := body[len(body)-1].(*testlang.DirectiveStmt)
	if !ok {
		t.Fatalf("last statement is %T, want a directive", body[len(body)-1])
	}
	return ex, ds
}

// checkRef asserts the ref invariant on v through refOf: its view's
// dims are the last rank dims of its block, and equal want.
func checkRef(t *testing.T, name string, v value, want []int) ref {
	t.Helper()
	r, ok := refOf(v)
	if !ok {
		t.Fatalf("%s: not a ref (kind %d)", name, v.k)
	}
	if r.rank < 0 || r.rank > len(r.blk.dims) {
		t.Fatalf("%s: rank %d outside block dims %v", name, r.rank, r.blk.dims)
	}
	got := r.dims()
	if !slices.Equal(got, r.blk.dims[len(r.blk.dims)-len(got):]) {
		t.Fatalf("%s: dims %v are not a suffix of block dims %v", name, got, r.blk.dims)
	}
	if !slices.Equal(got, want) || (r.rank == 0) != (len(got) == 0) {
		t.Fatalf("%s: rank %d dims %v, want %v", name, r.rank, got, want)
	}
	return r
}

const layoutDecls = `
#include <stdlib.h>
int main() {
    int a1[8];
    double a2[4][6];
    int a3[2][3][5];
    double *row = a2[1];
    int *plane = a3[1];
    int *line = a3[1][2];
    int *elem = &line[3];
    int *cell = &a1[2];
    int *shifted = a1 + 3;
    int *planeNext = plane + 1;
    double *heap = (double *)malloc(16 * sizeof(double));
    double *heapMid = heap + 4;
    line++;
    planeNext--;
`

// layoutBody references every local in a device loop.
const layoutBody = `
    for (int i = 0; i < 4; i++) {
        a1[i] = a2[i][i] + a3[0][i] + row[i] + plane[i] + line[i] + elem[0] + cell[0] + shifted[i] + planeNext[i] + heap[i] + heapMid[i];
    }
}`

// TestRefDimsAreBlockSuffix builds every kind of ref the machine makes
// — declared 1-D/2-D/3-D arrays, sub-views, &a[i], pointer arithmetic,
// heap blocks and both dialects' device mirrors — and checks that each
// one's dims are a suffix of its block's declared dims.
func TestRefDimsAreBlockSuffix(t *testing.T) {
	want := map[string][]int{
		"a1": {8}, "a2": {4, 6}, "a3": {2, 3, 5},
		"row": {6}, "plane": {3, 5}, "line": {5},
		"elem": nil, "cell": nil, "shifted": {8}, "planeNext": {3, 5},
		"heap": nil, "heapMid": nil,
	}
	for _, c := range []struct {
		d    spec.Dialect
		tail string
	}{
		{spec.OpenACC, `
#pragma acc enter data copyin(a1, a2, a3, heap[0:16])
#pragma acc parallel loop present(a2, a3, heap, row, plane, line, elem, cell, shifted, planeNext, heapMid)` + layoutBody},
		{spec.OpenMP, `
#pragma omp target enter data map(to: a2, a3, heap[0:16])
#pragma omp target teams distribute parallel for` + layoutBody},
	} {
		ex, ds := prelude(t, c.d, layoutDecls+c.tail)
		e := ex.env
		if len(e.names) != len(want) {
			t.Fatalf("%v: %d locals %v, want %d", c.d, len(e.names), e.names, len(want))
		}
		hosts := map[string]ref{}
		for i, name := range e.names {
			hosts[name] = checkRef(t, name, e.cells[i].v, want[name])
		}
		if hosts["elem"].off != 15+10+3 || hosts["planeNext"].off != 15+1-1 || hosts["line"].off != 15+10+1 {
			t.Fatalf("%v: offsets elem %d planeNext %d line %d", c.d, hosts["elem"].off, hosts["planeNext"].off, hosts["line"].off)
		}

		plan := ex.in.obj.Plans[ds]
		ex.applyDataOps(plan.Data, true)
		overlay, _ := ex.deviceBindings(ds.Body, plan)
		if len(overlay.names) != len(want) {
			t.Fatalf("%v: device bindings %v, want all %d locals", c.d, overlay.names, len(want))
		}
		for i, name := range overlay.names {
			dev := checkRef(t, name, overlay.cells[i].v, want[name])
			host := hosts[name]
			if !dev.blk.onDevice || dev.blk == host.blk {
				t.Fatalf("%v %s: bound to a host block", c.d, name)
			}
			if dev.off != host.off || !slices.Equal(dev.blk.dims, host.blk.dims) {
				t.Fatalf("%v %s: mirror off %d dims %v, host off %d dims %v",
					c.d, name, dev.off, dev.blk.dims, host.off, host.blk.dims)
			}
		}
	}
}

// TestRefHelpersPanicDirectly calls refVal and refOf outside Run, where
// their panics are not converted to a simulated segfault.
func TestRefHelpersPanicDirectly(t *testing.T) {
	blk := newArrayBlock("a", testlang.Type{Base: "int"}, []int{2, 3})
	for rank := 0; rank <= 2; rank++ {
		r := ref{blk: blk, off: -4, rank: rank}
		if got, ok := refOf(refVal(r)); !ok || got != r {
			t.Fatalf("refOf(refVal(%+v)) = %+v, %v", r, got, ok)
		}
	}
	if _, ok := refOf(intVal(7)); ok {
		t.Fatal("refOf accepted an int")
	}
	for _, bad := range []ref{{blk: blk, rank: 3}, {blk: blk, rank: -1}, {blk: newHeapBlock(8), rank: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("refVal(%+v) did not panic", bad)
				}
			}()
			refVal(bad)
		}()
	}
	// refOf hands back whatever rank a value carries; a corrupt one
	// must surface as a panic from dims, not as a silent wrong view.
	corrupt := refVal(ref{blk: blk, rank: 2})
	corrupt.rank = 5
	r, _ := refOf(corrupt)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("dims of a rank beyond the block did not panic")
			}
		}()
		_ = r.dims()
	}()
}

// TestHugeAllocationsFailTheRun: an allocation past maxBlockCells fails
// the one run (bad-alloc trap, or NULL from malloc) instead of
// exhausting the memory of the whole process.
func TestHugeAllocationsFailTheRun(t *testing.T) {
	r := run(t, `int main() { int a[65536][65536]; return a[1][1]; }`, spec.OpenMP)
	if r.Trap != "bad-alloc" || r.ReturnCode != 1 {
		t.Fatalf("huge array: %+v", *r)
	}
	r = run(t, `
#include <stdlib.h>
int main() { char *p = (char *)malloc(200000000); if (p == NULL) return 3; p[0] = 1; return p[0]; }`, spec.OpenMP)
	if r.Trap != "" || r.ReturnCode != 3 {
		t.Fatalf("huge malloc: %+v", *r)
	}
}

// TestScopesOpenOnlyForDeclarations: a loop whose body declares
// nothing runs without allocating a scope per iteration, and shadowing
// and scope exit still behave as in C, also when continue or break
// leaves a body whose scope is open.
func TestScopesOpenOnlyForDeclarations(t *testing.T) {
	r := run(t, `
#include <stdio.h>
int main() {
    int x = 1;
    int s = 0;
    int i = 7;
    for (int i = 0; i < 4; i++) {
        s += i;
        if (i == 2) continue;
        { int x = 10; s += x; }
    }
    { s += x; int x = 100; s += x; }
    while (s < 200) { int t = 50; s += t; if (s > 170) break; }
    int k = 0;
    while (k < 3) { k++; int k = 100; s += k; if (k == 100) continue; s += 1000; }
    printf("%d %d %d %d\n", x, s, k, i);
    return 0;
}`, spec.OpenMP)
	if r.Stdout != "1 487 3 7\n" {
		t.Fatalf("stdout %q", r.Stdout)
	}
	src := `
int main() {
    double a[64];
    double s = 0.0;
    for (int i = 0; i < 64; i++) { a[i] = i * 0.5; s += a[i]; }
    for (int k = 0; k < 64; k++) s = s + a[k] * 2.0;
    return s > 0.0 ? 0 : 1;
}`
	res := compiler.Reference(spec.OpenMP).Compile("t.c", src, testlang.LangC)
	if !res.OK {
		t.Fatal(res.Stderr)
	}
	// Run's setup and the two loops' counter scopes take about 25
	// allocations; a scope per iteration would add 128.
	allocs := testing.AllocsPerRun(20, func() { Run(res.Object, Options{Workers: 1}) })
	if allocs > 40 {
		t.Fatalf("%v allocations per run of two 64-iteration loops", allocs)
	}
}
