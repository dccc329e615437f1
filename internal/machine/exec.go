package machine

import (
	"repro/internal/testlang"
)

// exec is one thread of interpretation: shared interpreter state plus
// the local environment and region context.
type exec struct {
	in  *interp
	env *env
	// inDevice is true inside a device compute region (affects fault
	// flavour and nested construct behaviour).
	inDevice bool
	// workerID / regionWidth implement omp_get_thread_num and friends.
	workerID    int
	regionWidth int
	// redundant is true inside a region whose body every worker
	// executes (omp parallel); false inside a distributed loop, where
	// each worker runs a different slice of iterations. Nested loop
	// directives work-share only in redundant regions.
	redundant bool
	// callDepth guards against runaway recursion.
	callDepth int
	// scoped is false while the innermost Block or for statement has
	// not opened its scope yet: env is still the enclosing scope, and
	// the statement's first declaration opens one (see openScope).
	// Statements that declare nothing allocate no scope.
	scoped bool
}

// child returns an exec sharing everything but using a nested scope.
func (ex *exec) child(e *env) *exec {
	c := *ex
	c.env = e
	c.scoped = true
	return &c
}

// openScope gives the innermost Block or for statement its own scope
// before its first declaration.
func (ex *exec) openScope() {
	if !ex.scoped {
		ex.env = newEnv(ex.env)
		ex.scoped = true
	}
}

// place is an assignable storage location: a variable's cell, or
// element off of blk when c is nil.
type place struct {
	c   *cell
	blk *block
	off int
}

func (p place) load() value {
	if p.c != nil {
		return p.c.v
	}
	return p.blk.cells[p.off]
}

func (p place) store(v value) {
	if p.c != nil {
		p.c.v = v
		return
	}
	p.blk.cells[p.off] = convertTo(v, p.blk.elem)
}

// declareVar evaluates a declaration into the given scope.
func (ex *exec) declareVar(v *testlang.VarDecl, into *env) {
	if len(v.ArrayDims) > 0 {
		dims := make([]int, len(v.ArrayDims))
		cells := int64(1)
		for i, dimExpr := range v.ArrayDims {
			if dimExpr == nil {
				dims[i] = 0
				continue
			}
			d := ex.eval(dimExpr).asInt()
			if d < 0 || d > maxBlockCells {
				panic(trapSignal{kind: "bad-alloc", rc: 1, msg: "array dimension out of range"})
			}
			if cells *= d; cells > maxBlockCells {
				panic(trapSignal{kind: "bad-alloc", rc: 1, msg: "array size out of range"})
			}
			dims[i] = int(d)
		}
		blk := newArrayBlock(v.Name, testlang.Type{Base: v.Type.Base}, dims)
		into.declare(v.Name, refVal(ref{blk: blk, rank: len(dims)}))
		if il, ok := v.Init.(*testlang.InitList); ok {
			ex.fillInitList(blk, il)
		}
		return
	}
	var init value
	if v.Init != nil {
		init = convertTo(ex.eval(v.Init), v.Type)
		if r, isRef := refOf(init); isRef && v.Type.Ptr > 0 && !r.blk.materialized {
			r.blk.materialize(v.Type)
		}
	} else {
		init = zeroValue(v.Type)
	}
	into.declare(v.Name, init)
}

// fillInitList writes a (possibly nested) brace initialiser into a
// freshly allocated array block.
func (ex *exec) fillInitList(blk *block, il *testlang.InitList) {
	pos := 0
	var fill func(il *testlang.InitList)
	fill = func(il *testlang.InitList) {
		for _, el := range il.Elems {
			if nested, ok := el.(*testlang.InitList); ok {
				fill(nested)
				continue
			}
			if pos < len(blk.cells) {
				blk.cells[pos] = convertTo(ex.eval(el), blk.elem)
				pos++
			}
		}
	}
	fill(il)
}

// execStmt interprets one statement.
func (ex *exec) execStmt(s testlang.Stmt) {
	if s == nil {
		return
	}
	ex.in.step()
	switch n := s.(type) {
	case *testlang.Block:
		env, scoped := ex.env, ex.scoped
		ex.scoped = false
		for _, st := range n.Stmts {
			ex.execStmt(st)
		}
		ex.env, ex.scoped = env, scoped
	case *testlang.DeclStmt:
		ex.openScope()
		for _, d := range n.Decls {
			ex.declareVar(d, ex.env)
		}
	case *testlang.ExprStmt:
		ex.eval(n.X)
	case *testlang.EmptyStmt:
	case *testlang.IfStmt:
		if ex.eval(n.Cond).truthy() {
			ex.execStmt(n.Then)
		} else {
			ex.execStmt(n.Else)
		}
	case *testlang.ForStmt:
		ex.execFor(n)
	case *testlang.WhileStmt:
		ex.execWhile(n)
	case *testlang.ReturnStmt:
		var v value
		if n.X != nil {
			v = ex.eval(n.X)
		} else {
			v = intVal(0)
		}
		panic(returnSignal{v: v})
	case *testlang.BreakStmt:
		panic(breakSignal{})
	case *testlang.ContinueStmt:
		panic(continueSignal{})
	case *testlang.DirectiveStmt:
		ex.execDirective(n)
	case *testlang.UnknownPragmaStmt:
		// Ignored at run time, as a real compiler's codegen would.
	}
}

// runBody executes one loop iteration, absorbing continue and
// reporting break. A Block or for statement restores ex's scope when
// it completes; one cut short by continue or break is restored here,
// the only place that resumes an exec after a panic.
func (ex *exec) runBody(body testlang.Stmt) (brk bool) {
	env, scoped := ex.env, ex.scoped
	defer func() {
		switch r := recover().(type) {
		case nil:
		case continueSignal:
			ex.env, ex.scoped = env, scoped
		case breakSignal:
			ex.env, ex.scoped = env, scoped
			brk = true
		default:
			panic(r)
		}
	}()
	ex.execStmt(body)
	return false
}

func (ex *exec) execFor(n *testlang.ForStmt) {
	env, scoped := ex.env, ex.scoped
	ex.scoped = false
	ex.execStmt(n.Init)
	for n.Cond == nil || ex.eval(n.Cond).truthy() {
		if ex.runBody(n.Body) {
			break
		}
		if n.Post != nil {
			ex.eval(n.Post)
		}
	}
	ex.env, ex.scoped = env, scoped
}

func (ex *exec) execWhile(n *testlang.WhileStmt) {
	for ex.eval(n.Cond).truthy() {
		if ex.runBody(n.Body) {
			return
		}
	}
}

// eval evaluates an expression to a value.
func (ex *exec) eval(e testlang.Expr) value {
	ex.in.step()
	switch n := e.(type) {
	case nil:
		return intVal(0)
	case *testlang.IntLitExpr:
		return intVal(n.Value)
	case *testlang.FloatLitExpr:
		return floatVal(n.Value)
	case *testlang.StringLitExpr:
		return strVal(&n.Value)
	case *testlang.CharLitExpr:
		return intVal(int64(n.Value))
	case *testlang.IdentExpr:
		return ex.evalIdent(n)
	case *testlang.BinaryExpr:
		return ex.evalBinary(n)
	case *testlang.UnaryExpr:
		return ex.evalUnary(n)
	case *testlang.PostfixExpr:
		p := ex.lvalue(n.X)
		old := p.load()
		p.store(applyDelta(old, n.Op))
		return old
	case *testlang.AssignExpr:
		return ex.evalAssign(n)
	case *testlang.CondExpr:
		if ex.eval(n.Cond).truthy() {
			return ex.eval(n.Then)
		}
		return ex.eval(n.Else)
	case *testlang.CallExpr:
		return ex.evalCall(n)
	case *testlang.IndexExpr:
		return ex.indexPlaceOrView(n)
	case *testlang.CastExpr:
		v := ex.eval(n.X)
		if n.To.Ptr > 0 {
			if r, ok := refOf(v); ok && !r.blk.materialized {
				r.blk.materialize(n.To)
			}
			return v
		}
		return convertTo(v, n.To)
	case *testlang.SizeofExpr:
		return intVal(sizeOf(n.Of))
	case *testlang.InitList:
		if len(n.Elems) > 0 {
			return ex.eval(n.Elems[0])
		}
		return intVal(0)
	default:
		return intVal(0)
	}
}

func (ex *exec) evalIdent(n *testlang.IdentExpr) value {
	if c, ok := ex.env.lookup(n.Name); ok {
		return c.v
	}
	switch n.Name {
	case "NULL":
		return nullVal()
	case "stderr":
		return strVal(&stderrName)
	case "stdout":
		return strVal(&stdoutName)
	case "RAND_MAX":
		return intVal(2147483647)
	case "EXIT_SUCCESS":
		return intVal(0)
	case "EXIT_FAILURE":
		return intVal(1)
	case "acc_device_default", "acc_device_nvidia", "omp_sched_static":
		return intVal(1)
	case "acc_device_host", "omp_sched_dynamic":
		return intVal(2)
	}
	// Sema guarantees this does not happen for compiled programs.
	panic(segfault())
}

// resolveIndex computes the block/offset for one index step, trapping
// on null, freed, or out-of-range accesses.
func (ex *exec) resolveIndex(n *testlang.IndexExpr) (r ref, off int) {
	base := ex.eval(n.X)
	idx := int(ex.eval(n.Index).asInt())
	br, ok := refOf(base)
	if !ok || br.blk == nil || br.blk.freed {
		panic(ex.pointerFault())
	}
	if !br.blk.materialized {
		br.blk.materialize(testlang.Type{Base: "int"})
	}
	if br.rank > 1 {
		dims := br.dims()
		stride := 1
		for _, d := range dims[1:] {
			stride *= d
		}
		if idx < 0 || idx >= dims[0] {
			panic(ex.pointerFault())
		}
		return br, br.off + idx*stride
	}
	o := br.off + idx
	if o < 0 || o >= len(br.blk.cells) {
		panic(ex.pointerFault())
	}
	return br, o
}

// indexPlaceOrView evaluates an index expression: an inner index of a
// multi-dimensional array yields a sub-view ref; a final index yields
// the element value.
func (ex *exec) indexPlaceOrView(n *testlang.IndexExpr) value {
	r, off := ex.resolveIndex(n)
	if r.rank > 1 {
		return refVal(ref{blk: r.blk, off: off, rank: r.rank - 1})
	}
	return r.blk.cells[off]
}

// lvalue resolves an expression to its storage place.
func (ex *exec) lvalue(e testlang.Expr) place {
	switch n := e.(type) {
	case *testlang.IdentExpr:
		if c, ok := ex.env.lookup(n.Name); ok {
			return place{c: c}
		}
		panic(segfault())
	case *testlang.IndexExpr:
		r, off := ex.resolveIndex(n)
		if r.rank > 1 {
			panic(ex.pointerFault()) // assigning to a whole row
		}
		return place{blk: r.blk, off: off}
	case *testlang.UnaryExpr:
		if n.Op == "*" {
			v := ex.eval(n.X)
			r, ok := refOf(v)
			if !ok || r.blk == nil || r.blk.freed {
				panic(ex.pointerFault())
			}
			if !r.blk.materialized {
				r.blk.materialize(testlang.Type{Base: "int"})
			}
			if r.off < 0 || r.off >= len(r.blk.cells) {
				panic(ex.pointerFault())
			}
			return place{blk: r.blk, off: r.off}
		}
	}
	panic(segfault())
}

func (ex *exec) pointerFault() trapSignal {
	if ex.inDevice {
		return illegalDeviceAccess()
	}
	return segfault()
}

func (ex *exec) evalAssign(n *testlang.AssignExpr) value {
	p := ex.lvalue(n.L)
	rhs := ex.eval(n.R)
	var out value
	if n.Op == "=" {
		out = coerceLike(p.load(), rhs)
	} else {
		out = arith(n.Op[:1], p.load(), rhs)
	}
	p.store(out)
	return out
}

// coerceLike keeps the static flavour of the destination when it is
// numeric, so "int x; x = 1.9" truncates, while pointer stores keep
// refs.
func coerceLike(dst, v value) value {
	switch dst.k {
	case kFloat:
		return floatVal(v.asFloat())
	case kInt:
		if v.k == kFloat {
			return intVal(int64(v.f()))
		}
		if v.k == kRef || v.k == kNull {
			return v
		}
		return intVal(v.asInt())
	default:
		return v
	}
}

func applyDelta(v value, op string) value {
	d := int64(1)
	if op == "--" {
		d = -1
	}
	if v.k == kFloat {
		return floatVal(v.f() + float64(d))
	}
	if r, ok := refOf(v); ok {
		r.off += int(d)
		return refVal(r)
	}
	return intVal(v.i() + d)
}

func (ex *exec) evalUnary(n *testlang.UnaryExpr) value {
	switch n.Op {
	case "!":
		return boolToInt(!ex.eval(n.X).truthy())
	case "-":
		v := ex.eval(n.X)
		if v.k == kFloat {
			return floatVal(-v.f())
		}
		return intVal(-v.asInt())
	case "~":
		return intVal(^ex.eval(n.X).asInt())
	case "*":
		return ex.lvalue(n).load()
	case "&":
		return ex.addressOf(n.X)
	case "++", "--":
		p := ex.lvalue(n.X)
		nv := applyDelta(p.load(), n.Op)
		p.store(nv)
		return nv
	default:
		return ex.eval(n.X)
	}
}

func (ex *exec) addressOf(e testlang.Expr) value {
	switch t := e.(type) {
	case *testlang.IndexExpr:
		r, off := ex.resolveIndex(t)
		return refVal(ref{blk: r.blk, off: off})
	case *testlang.IdentExpr:
		v := ex.eval(t)
		if r, ok := refOf(v); ok {
			return refVal(r)
		}
		// Address of a scalar: a one-cell alias block. Writes through
		// the alias do not propagate back to the variable; the corpus
		// does not use scalar aliasing, and probed files that do get
		// deterministic (if not bit-faithful) behaviour.
		blk := &block{cells: []value{v}, materialized: true, name: t.Name}
		return refVal(ref{blk: blk})
	default:
		return nullVal()
	}
}

func (ex *exec) evalBinary(n *testlang.BinaryExpr) value {
	switch n.Op {
	case "&&":
		if !ex.eval(n.L).truthy() {
			return intVal(0)
		}
		return boolToInt(ex.eval(n.R).truthy())
	case "||":
		if ex.eval(n.L).truthy() {
			return intVal(1)
		}
		return boolToInt(ex.eval(n.R).truthy())
	}
	l := ex.eval(n.L)
	r := ex.eval(n.R)
	switch n.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		return compare(n.Op, l, r)
	default:
		return arith(n.Op, l, r)
	}
}

func compare(op string, l, r value) value {
	if l.k == kRef || r.k == kRef || l.k == kNull || r.k == kNull {
		eq := pointerEqual(l, r)
		switch op {
		case "==":
			return boolToInt(eq)
		case "!=":
			return boolToInt(!eq)
		default:
			return intVal(0)
		}
	}
	if l.k == kFloat || r.k == kFloat {
		a, b := l.asFloat(), r.asFloat()
		switch op {
		case "==":
			return boolToInt(a == b)
		case "!=":
			return boolToInt(a != b)
		case "<":
			return boolToInt(a < b)
		case "<=":
			return boolToInt(a <= b)
		case ">":
			return boolToInt(a > b)
		default:
			return boolToInt(a >= b)
		}
	}
	a, b := l.asInt(), r.asInt()
	switch op {
	case "==":
		return boolToInt(a == b)
	case "!=":
		return boolToInt(a != b)
	case "<":
		return boolToInt(a < b)
	case "<=":
		return boolToInt(a <= b)
	case ">":
		return boolToInt(a > b)
	default:
		return boolToInt(a >= b)
	}
}

func pointerEqual(l, r value) bool {
	ln, rn := l.isNullPtr(), r.isNullPtr()
	if ln || rn {
		return ln && rn
	}
	return l.k == kRef && r.k == kRef && l.blk == r.blk && l.bits == r.bits
}

func boolToInt(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

func arith(op string, l, r value) value {
	if lr, ok := refOf(l); ok && (op == "+" || op == "-") {
		d := int(r.asInt())
		if op == "-" {
			d = -d
		}
		lr.off += d
		return refVal(lr)
	}
	if rr, ok := refOf(r); ok && op == "+" {
		rr.off += int(l.asInt())
		return refVal(rr)
	}
	if l.k == kFloat || r.k == kFloat {
		a, b := l.asFloat(), r.asFloat()
		switch op {
		case "+":
			return floatVal(a + b)
		case "-":
			return floatVal(a - b)
		case "*":
			return floatVal(a * b)
		case "/":
			return floatVal(a / b)
		default:
			return floatVal(0)
		}
	}
	a, b := l.asInt(), r.asInt()
	switch op {
	case "+":
		return intVal(a + b)
	case "-":
		return intVal(a - b)
	case "*":
		return intVal(a * b)
	case "/":
		if b == 0 {
			panic(fpeFault())
		}
		return intVal(a / b)
	case "%":
		if b == 0 {
			panic(fpeFault())
		}
		return intVal(a % b)
	case "&":
		return intVal(a & b)
	case "|":
		return intVal(a | b)
	case "^":
		return intVal(a ^ b)
	case "<<":
		return intVal(a << uint(b&63))
	case ">>":
		return intVal(a >> uint(b&63))
	}
	return intVal(0)
}

// callFunction invokes a user function with already-evaluated args.
func (ex *exec) callFunction(fd *testlang.FuncDecl, args []value) value {
	if ex.callDepth > 2000 {
		panic(segfault()) // stack overflow
	}
	fnEnv := newEnv(ex.in.globals)
	for i, p := range fd.Params {
		var v value
		if i < len(args) {
			v = args[i]
			if !p.Array && p.Type.Ptr == 0 {
				v = convertTo(v, p.Type)
			}
		} else {
			v = zeroValue(p.Type)
		}
		fnEnv.declare(p.Name, v)
	}
	callee := &exec{
		in:          ex.in,
		env:         fnEnv,
		scoped:      true,
		inDevice:    ex.inDevice,
		workerID:    ex.workerID,
		regionWidth: ex.regionWidth,
		callDepth:   ex.callDepth + 1,
	}
	return runWithReturn(callee, fd.Body)
}

func runWithReturn(ex *exec, body *testlang.Block) (ret value) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case returnSignal:
			ret = r.v
		default:
			panic(r)
		}
	}()
	ex.execStmt(body)
	return intVal(0)
}
