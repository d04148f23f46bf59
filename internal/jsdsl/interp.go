package jsdsl

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultMaxSteps bounds script execution; a real browser has watchdogs
// for runaway scripts, and the interpreter needs the same property so a
// buggy generated script cannot stall a 20,000-site crawl.
const DefaultMaxSteps = 500_000

// RuntimeError is a script execution error with its source line.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("jsdsl: runtime error at line %d: %s", e.Line, e.Msg)
}

// control-flow signals travel as errors internally.
type returnSignal struct{ value Value }
type breakSignal struct{}
type continueSignal struct{}

func (returnSignal) Error() string   { return "return outside function" }
func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// Interp executes SiteScript programs against a Host. One Interp runs
// one script at a time (it is not itself safe for concurrent use), but
// any number of Interps may concurrently execute the same shared
// *Program: the interpreter treats the AST as read-only and keeps every
// piece of mutable state — scopes, closures' environments, the step
// counter — on the Interp or in per-run Envs.
type Interp struct {
	Host     Host
	MaxSteps int

	steps   int
	globals *Env

	// envFree recycles block/call scopes within and across runs of this
	// interpreter. A scope returns here when its block exits, unless a
	// closure captured it (Env.captured).
	envFree []*Env

	// argStack is the shared backing for builtin/closure argument slices:
	// arguments are pushed per call and popped on return, so nested calls
	// reuse one growing buffer instead of allocating a slice per call.
	argStack []Value

	// maps is the per-interp freelist for script Map values: maps[:mapNext]
	// are live (handed to the current run), maps[mapNext:] are free. Maps
	// have no scoped death — a script can stash one anywhere — but none
	// can outlive the interpreter's run lifetime (the Host bridge traffics
	// only in strings and CookieRecords, and closures that captured one
	// may not run after Release), so Release clears and reclaims them all.
	maps    []*Map
	mapNext int

	// Single-slot memo for parsing the document.cookie string: scripts
	// poll get_cookie far more often than the string changes, and
	// ParseCookieString is pure, so an identical input reuses the parsed
	// pairs. The parsed values never escape to script code unmutated
	// (builtins copy into fresh Maps or return strings).
	cookieStr   string
	cookieNames []string
	cookieVals  map[string]string
	cookieMemo  bool
}

// parsedDocCookie returns ParseCookieString(s), memoized on the exact
// input string. A miss re-parses into the memo's previous slice and map
// instead of allocating fresh ones — sound because the parsed view never
// escapes the builtin that asked for it (builtins copy into fresh script
// Maps or return plain strings).
func (in *Interp) parsedDocCookie(s string) ([]string, map[string]string) {
	if in.cookieMemo && s == in.cookieStr {
		return in.cookieNames, in.cookieVals
	}
	in.cookieNames, in.cookieVals = ParseCookieStringInto(s, in.cookieNames[:0], in.cookieVals)
	in.cookieStr, in.cookieMemo = s, true
	return in.cookieNames, in.cookieVals
}

// NewInterp returns an interpreter bound to host.
func NewInterp(host Host) *Interp {
	return &Interp{Host: host, MaxSteps: DefaultMaxSteps, globals: NewEnv(nil)}
}

// interpPool recycles interpreters across script runs. An interpreter's
// recycled state — scope maps, the argument stack, the cookie-parse memo
// — is what makes repeated script execution allocation-frugal.
var (
	interpPool = sync.Pool{New: func() any {
		interpAllocated.Add(1)
		return NewInterp(nil)
	}}
	interpAllocated atomic.Uint64
	interpAcquired  atomic.Uint64
)

// AcquireInterp returns a pooled interpreter bound to host. The caller
// owns it until Release; interpreters must not be released while any
// closure they produced (click handlers, deferred callbacks) can still
// run.
func AcquireInterp(host Host) *Interp {
	interpAcquired.Add(1)
	in := interpPool.Get().(*Interp)
	in.Host = host
	return in
}

// interpMapsMax bounds the Map freelist an interpreter retains across
// releases; a pathological page that built thousands of maps should not
// pin them in the pool forever.
const interpMapsMax = 256

// Release resets the interpreter (fresh global scope, zero step count;
// the cookie memo survives — it is keyed on the exact input string) and
// returns it to the pool. Script Maps created during the run are
// cleared and reclaimed into the per-interp freelist: nothing can reach
// them afterwards (see the maps field).
func (in *Interp) Release() {
	in.Host = nil
	in.steps = 0
	in.MaxSteps = DefaultMaxSteps
	g := in.globals
	if g.captured {
		// A closure kept the old global scope alive; give the next run a
		// fresh one and let the captured chain retire with its closures.
		in.globals = NewEnv(nil)
	} else {
		clear(g.vars)
	}
	for _, m := range in.maps[:in.mapNext] {
		clear(m.Entries)
	}
	if len(in.maps) > interpMapsMax {
		in.maps = in.maps[:interpMapsMax]
	}
	in.mapNext = 0
	interpPool.Put(in)
}

// newMap returns a cleared Map from the per-interp freelist, growing it
// on first use. The map stays owned by the interpreter and is reclaimed
// at Release, so repeated runs reuse both the Map headers and their
// bucket storage.
func (in *Interp) newMap() *Map {
	if in.mapNext < len(in.maps) {
		m := in.maps[in.mapNext]
		in.mapNext++
		return m
	}
	m := NewMap()
	in.maps = append(in.maps, m)
	in.mapNext++
	return m
}

// InterpPoolStats reports how many interpreters were ever allocated and
// how many acquisitions the pool served.
func InterpPoolStats() (allocated, acquired uint64) {
	return interpAllocated.Load(), interpAcquired.Load()
}

// newEnv returns a (pooled, if available) scope chained to parent.
func (in *Interp) newEnv(parent *Env) *Env {
	if n := len(in.envFree); n > 0 {
		e := in.envFree[n-1]
		in.envFree = in.envFree[:n-1]
		e.parent = parent
		return e
	}
	return NewEnv(parent)
}

// releaseEnv recycles a scope whose block has exited. Captured scopes
// (closures reference them) are left to the garbage collector.
func (in *Interp) releaseEnv(e *Env) {
	if e.captured {
		return
	}
	clear(e.vars)
	e.parent = nil
	in.envFree = append(in.envFree, e)
}

// Run executes a program in the interpreter's global scope.
func (in *Interp) Run(prog *Program) error {
	for _, s := range prog.Stmts {
		if err := in.execStmt(s, in.globals); err != nil {
			switch err.(type) {
			case returnSignal:
				return nil // top-level return ends the script
			case breakSignal, continueSignal:
				return &RuntimeError{Msg: err.Error()}
			}
			return err
		}
	}
	return nil
}

// RunSource parses and executes src.
func (in *Interp) RunSource(src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return in.Run(prog)
}

// CallClosure invokes a script closure from Go — the path by which the
// browser fires on_click and defer_run callbacks back into script code.
func (in *Interp) CallClosure(c *Closure, args ...Value) (Value, error) {
	return in.callClosure(c, args, 0)
}

// Steps returns the number of interpreter steps executed so far; the
// browser charges virtual execution time proportionally.
func (in *Interp) Steps() int { return in.steps }

func (in *Interp) step(line int) error {
	in.steps++
	if in.steps > in.MaxSteps {
		return &RuntimeError{Line: line, Msg: "step budget exhausted"}
	}
	return nil
}

func (in *Interp) execStmt(s Stmt, env *Env) error {
	switch st := s.(type) {
	case *LetStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		v, err := in.eval(st.Init, env)
		if err != nil {
			return err
		}
		env.Define(st.Name, v)
		return nil

	case *AssignStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		return in.execAssign(st, env)

	case *ExprStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		_, err := in.eval(st.X, env)
		return err

	case *IfStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		cond, err := in.eval(st.Cond, env)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			scope := in.newEnv(env)
			err := in.execBlock(st.Then, scope)
			in.releaseEnv(scope)
			return err
		}
		if st.Else != nil {
			return in.execStmt(st.Else, env)
		}
		return nil

	case *WhileStmt:
		for {
			if err := in.step(st.Line); err != nil {
				return err
			}
			cond, err := in.eval(st.Cond, env)
			if err != nil {
				return err
			}
			if !Truthy(cond) {
				return nil
			}
			scope := in.newEnv(env)
			err = in.execBlock(st.Body, scope)
			in.releaseEnv(scope)
			switch err.(type) {
			case nil, continueSignal:
			case breakSignal:
				return nil
			default:
				return err
			}
		}

	case *ForInStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		seq, err := in.eval(st.Seq, env)
		if err != nil {
			return err
		}
		var items []Value
		switch seq.kind {
		case KindNull:
			return nil
		case KindString:
			for _, ch := range seq.str {
				items = append(items, Str(string(ch)))
			}
		case KindRef:
			switch x := seq.ref.(type) {
			case *List:
				items = append(items, x.Elems...)
			case *Map:
				for _, k := range x.Keys() {
					items = append(items, Str(k))
				}
			default:
				return &RuntimeError{Line: st.Line, Msg: "for-in over non-iterable"}
			}
		default:
			return &RuntimeError{Line: st.Line, Msg: "for-in over non-iterable"}
		}
		for _, item := range items {
			if err := in.step(st.Line); err != nil {
				return err
			}
			scope := in.newEnv(env)
			scope.Define(st.Var, item)
			err := in.execBlock(st.Body, scope)
			in.releaseEnv(scope)
			switch err.(type) {
			case nil, continueSignal:
			case breakSignal:
				return nil
			default:
				return err
			}
		}
		return nil

	case *ReturnStmt:
		if err := in.step(st.Line); err != nil {
			return err
		}
		var v Value
		if st.Value != nil {
			var err error
			v, err = in.eval(st.Value, env)
			if err != nil {
				return err
			}
		}
		return returnSignal{value: v}

	case *BreakStmt:
		return breakSignal{}
	case *ContinueStmt:
		return continueSignal{}
	case *BlockStmt:
		scope := in.newEnv(env)
		err := in.execBlock(st, scope)
		in.releaseEnv(scope)
		return err
	default:
		return &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", s)}
	}
}

func (in *Interp) execBlock(b *BlockStmt, env *Env) error {
	for _, s := range b.Stmts {
		if err := in.execStmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execAssign(st *AssignStmt, env *Env) error {
	newVal, err := in.eval(st.Value, env)
	if err != nil {
		return err
	}
	apply := func(old Value) (Value, error) {
		switch st.Op {
		case "=":
			return newVal, nil
		case "+=":
			return in.binop("+", old, newVal, st.Line)
		case "-=":
			return in.binop("-", old, newVal, st.Line)
		}
		return Value{}, &RuntimeError{Line: st.Line, Msg: "bad assignment op " + st.Op}
	}

	switch target := st.Target.(type) {
	case *Ident:
		old, ok := env.Lookup(target.Name)
		if !ok {
			return &RuntimeError{Line: st.Line, Msg: "assignment to undeclared variable " + target.Name}
		}
		v, err := apply(old)
		if err != nil {
			return err
		}
		env.Set(target.Name, v)
		return nil

	case *IndexExpr:
		container, err := in.eval(target.X, env)
		if err != nil {
			return err
		}
		idx, err := in.eval(target.Index, env)
		if err != nil {
			return err
		}
		if l, ok := container.AsList(); ok {
			i, ok := idx.AsNumber()
			if !ok || int(i) < 0 || int(i) >= len(l.Elems) {
				return &RuntimeError{Line: st.Line, Msg: "list index out of range"}
			}
			v, err := apply(l.Elems[int(i)])
			if err != nil {
				return err
			}
			l.Elems[int(i)] = v
			return nil
		}
		if m, ok := container.AsMap(); ok {
			k, ok := idx.AsString()
			if !ok {
				return &RuntimeError{Line: st.Line, Msg: "map key must be a string"}
			}
			v, err := apply(m.Entries[k])
			if err != nil {
				return err
			}
			m.Entries[k] = v
			return nil
		}
		return &RuntimeError{Line: st.Line, Msg: "cannot index-assign this value"}
	default:
		return &RuntimeError{Line: st.Line, Msg: "invalid assignment target"}
	}
}

func (in *Interp) eval(e Expr, env *Env) (Value, error) {
	switch x := e.(type) {
	case *NumberLit:
		return Num(x.Value), nil
	case *StringLit:
		return Str(x.Value), nil
	case *BoolLit:
		return BoolVal(x.Value), nil
	case *NullLit:
		return Value{}, nil

	case *Ident:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		if _, ok := builtins[x.Name]; ok {
			return builtinVal(x.Name), nil
		}
		return Value{}, &RuntimeError{Line: x.Line, Msg: "undefined variable " + x.Name}

	case *ListLit:
		l := &List{}
		if n := len(x.Elems); n > 0 {
			l.Elems = make([]Value, 0, n)
		}
		for _, el := range x.Elems {
			v, err := in.eval(el, env)
			if err != nil {
				return Value{}, err
			}
			l.Elems = append(l.Elems, v)
		}
		return ListVal(l), nil

	case *MapLit:
		m := in.newMap()
		for i := range x.Keys {
			kv, err := in.eval(x.Keys[i], env)
			if err != nil {
				return Value{}, err
			}
			k, ok := kv.AsString()
			if !ok {
				return Value{}, &RuntimeError{Line: x.Line, Msg: "map key must be a string"}
			}
			v, err := in.eval(x.Values[i], env)
			if err != nil {
				return Value{}, err
			}
			m.Entries[k] = v
		}
		return MapVal(m), nil

	case *FuncLit:
		// The closure can reach every scope on the chain; mark them all
		// captured so none returns to the scope pool under it.
		for s := env; s != nil && !s.captured; s = s.parent {
			s.captured = true
		}
		return ClosureVal(&Closure{Fn: x, Env: env}), nil

	case *IndexExpr:
		container, err := in.eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		idx, err := in.eval(x.Index, env)
		if err != nil {
			return Value{}, err
		}
		switch container.kind {
		case KindString:
			i, ok := idx.AsNumber()
			if !ok || int(i) < 0 || int(i) >= len(container.str) {
				return Value{}, nil
			}
			return Str(string(container.str[int(i)])), nil
		case KindNull:
			return Value{}, &RuntimeError{Line: x.Line, Msg: "cannot index null"}
		case KindRef:
			switch c := container.ref.(type) {
			case *List:
				i, ok := idx.AsNumber()
				if !ok || int(i) < 0 || int(i) >= len(c.Elems) {
					return Value{}, nil // out-of-range reads yield null, like JS undefined
				}
				return c.Elems[int(i)], nil
			case *Map:
				k, ok := idx.AsString()
				if !ok {
					return Value{}, &RuntimeError{Line: x.Line, Msg: "map key must be a string"}
				}
				return c.Entries[k], nil
			}
		}
		return Value{}, &RuntimeError{Line: x.Line, Msg: "cannot index this value"}

	case *UnaryExpr:
		v, err := in.eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "!":
			return BoolVal(!Truthy(v)), nil
		case "-":
			f, ok := v.AsNumber()
			if !ok {
				return Value{}, &RuntimeError{Line: x.Line, Msg: "unary minus on non-number"}
			}
			return Num(-f), nil
		}
		return Value{}, &RuntimeError{Line: x.Line, Msg: "unknown unary op " + x.Op}

	case *BinaryExpr:
		// Short-circuit logical operators.
		if x.Op == "&&" {
			l, err := in.eval(x.L, env)
			if err != nil {
				return Value{}, err
			}
			if !Truthy(l) {
				return l, nil
			}
			return in.eval(x.R, env)
		}
		if x.Op == "||" {
			l, err := in.eval(x.L, env)
			if err != nil {
				return Value{}, err
			}
			if Truthy(l) {
				return l, nil
			}
			return in.eval(x.R, env)
		}
		l, err := in.eval(x.L, env)
		if err != nil {
			return Value{}, err
		}
		r, err := in.eval(x.R, env)
		if err != nil {
			return Value{}, err
		}
		return in.binop(x.Op, l, r, x.Line)

	case *CallExpr:
		callee, err := in.eval(x.Callee, env)
		if err != nil {
			return Value{}, err
		}
		// Arguments are pushed on the interpreter's shared stack; the
		// slice passed down is consumed synchronously by the callee, so
		// popping after the call is sound (closures stored for later —
		// on_click, defer_run — are invoked with fresh argument slices).
		base := len(in.argStack)
		for _, a := range x.Args {
			v, err := in.eval(a, env)
			if err != nil {
				in.argStack = in.argStack[:base]
				return Value{}, err
			}
			in.argStack = append(in.argStack, v)
		}
		args := in.argStack[base:]
		var out Value
		switch callee.kind {
		case KindRef:
			f, ok := callee.ref.(*Closure)
			if !ok {
				in.argStack = in.argStack[:base]
				return Value{}, &RuntimeError{Line: x.Line, Msg: "not callable"}
			}
			out, err = in.callClosure(f, args, x.Line)
		case KindBuiltin:
			fn := builtins[callee.str]
			out, err = fn(in, args)
			if err != nil {
				if re, ok := err.(*RuntimeError); ok && re.Line == 0 {
					re.Line = x.Line
				}
			}
		default:
			in.argStack = in.argStack[:base]
			return Value{}, &RuntimeError{Line: x.Line, Msg: "not callable"}
		}
		in.argStack = in.argStack[:base]
		if err != nil {
			return Value{}, err
		}
		return out, nil
	default:
		return Value{}, &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", e)}
	}
}

func (in *Interp) callClosure(c *Closure, args []Value, line int) (Value, error) {
	if err := in.step(line); err != nil {
		return Value{}, err
	}
	scope := in.newEnv(c.Env)
	for i, p := range c.Fn.Params {
		if i < len(args) {
			scope.Define(p, args[i])
		} else {
			scope.Define(p, Value{})
		}
	}
	err := in.execBlock(c.Fn.Body, scope)
	in.releaseEnv(scope)
	if rs, ok := err.(returnSignal); ok {
		return rs.value, nil
	}
	if err != nil {
		return Value{}, err
	}
	return Value{}, nil
}

func (in *Interp) binop(op string, l, r Value, line int) (Value, error) {
	switch op {
	case "+":
		if l.kind == KindNumber && r.kind == KindNumber {
			return Num(l.num + r.num), nil
		}
		// string concatenation when either side is a string
		if l.kind == KindString || r.kind == KindString {
			return Str(ToString(l) + ToString(r)), nil
		}
		return Value{}, &RuntimeError{Line: line, Msg: "invalid operands for +"}
	case "-", "*", "/", "%":
		if l.kind != KindNumber || r.kind != KindNumber {
			return Value{}, &RuntimeError{Line: line, Msg: "arithmetic on non-numbers"}
		}
		lf, rf := l.num, r.num
		switch op {
		case "-":
			return Num(lf - rf), nil
		case "*":
			return Num(lf * rf), nil
		case "/":
			if rf == 0 {
				return Value{}, &RuntimeError{Line: line, Msg: "division by zero"}
			}
			return Num(lf / rf), nil
		case "%":
			if rf == 0 {
				return Value{}, &RuntimeError{Line: line, Msg: "modulo by zero"}
			}
			return Num(float64(int64(lf) % int64(rf))), nil
		}
	case "==":
		return BoolVal(valueEquals(l, r)), nil
	case "!=":
		return BoolVal(!valueEquals(l, r)), nil
	case "<", ">", "<=", ">=":
		if l.kind == KindNumber && r.kind == KindNumber {
			switch op {
			case "<":
				return BoolVal(l.num < r.num), nil
			case ">":
				return BoolVal(l.num > r.num), nil
			case "<=":
				return BoolVal(l.num <= r.num), nil
			case ">=":
				return BoolVal(l.num >= r.num), nil
			}
		}
		if l.kind == KindString && r.kind == KindString {
			switch op {
			case "<":
				return BoolVal(l.str < r.str), nil
			case ">":
				return BoolVal(l.str > r.str), nil
			case "<=":
				return BoolVal(l.str <= r.str), nil
			case ">=":
				return BoolVal(l.str >= r.str), nil
			}
		}
		return Value{}, &RuntimeError{Line: line, Msg: "invalid comparison operands"}
	}
	return Value{}, &RuntimeError{Line: line, Msg: "unknown operator " + op}
}
