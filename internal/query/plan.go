package query

import (
	"errors"
	"fmt"
	"strings"

	"kgexplore/internal/index"
	"kgexplore/internal/rdf"
)

// AccessKind classifies how a step's candidate set is fetched from the store.
type AccessKind uint8

const (
	// AccessFull scans/samples the whole store (no position bound).
	AccessFull AccessKind = iota
	// AccessL1 uses a level-1 hash span (one position bound).
	AccessL1
	// AccessL2 uses a level-2 span (two positions bound).
	AccessL2
	// AccessMembership checks a fully bound triple (all positions bound).
	AccessMembership
)

func (k AccessKind) String() string {
	switch k {
	case AccessFull:
		return "full"
	case AccessL1:
		return "l1"
	case AccessL2:
		return "l2"
	case AccessMembership:
		return "membership"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Step is the compiled form of one pattern in walk order.
type Step struct {
	Pattern Pattern
	// Bound[pos] is true when the atom at pos is a constant or a variable
	// bound by an earlier step.
	Bound [3]bool
	// Kind and Order describe the access path used to resolve the
	// candidate set given the bindings.
	Kind  AccessKind
	Order index.Order
	// Key0 and Key1 are the pattern atoms at the order's trie levels 0 and 1,
	// hoisted out of the per-walk resolution loop at compile time.
	Key0, Key1 Atom
	// Static reports that the step's bound positions are all constants, so
	// its candidate set is independent of the bindings and can be resolved
	// once per (plan, store) with ResolveStatic.
	Static bool
	// NewVars lists variables first bound by this step, with their position.
	NewVars []VarPos
	// JoinVars lists this step's variables already bound by earlier steps.
	JoinVars []VarPos
	// Filters indexes Query.Filters anchored at this step: every filter
	// whose variables are all bound once this step completes, anchored at
	// the LAST such step. Engines check them right after binding the step;
	// a filter is an extra use of its variables at the anchor step, which
	// the interface computation honors (see Plan.Iface).
	Filters []int
}

// VarPos pairs a variable with the triple position it occupies in a pattern.
type VarPos struct {
	Var Var
	Pos index.Pos
}

// Plan is a compiled query: per-step access paths plus metadata shared by
// all engines.
type Plan struct {
	Query *Query
	Steps []Step
	// AlphaStep/AlphaPos locate the group variable's binding site (the step
	// that first binds it); likewise for Beta.
	AlphaStep, BetaStep int
	AlphaPos, BetaPos   index.Pos
	nvars               int
	// iface[i] is the interface of boundary i; see Iface.
	iface [][]Var
}

// NumVars returns the size of a binding array for this plan.
func (pl *Plan) NumVars() int { return pl.nvars }

// Compile validates the query and derives the access path of every step.
// It fails if a step would need the unsupported (s,o)-bound access, which
// cannot be served by the four maintained index orders.
func Compile(q *Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return compile(q)
}

// CompileCyclic compiles a query that may have cycles in its join graph
// (see ValidateCyclic). All engines evaluate such plans correctly: the
// cycle-closing pattern resolves as a membership or doubly-bound span
// access, and the estimators' unbiasedness arguments carry over unchanged.
func CompileCyclic(q *Query) (*Plan, error) {
	if err := q.ValidateCyclic(); err != nil {
		return nil, err
	}
	return compile(q)
}

// CompileUnchecked compiles without running Validate: the fragment's
// join-occurrence limit, acyclicity and connectivity checks are skipped
// (all-constant patterns become membership steps; a disconnected pattern
// degrades to a cartesian step). The evaluators remain correct on such
// plans; this entry point exists for diagnostics such as the selectivity
// metric, whose constant-stripped or constant-bound queries fall outside
// the fragment. Access-path servability is still enforced.
func CompileUnchecked(q *Query) (*Plan, error) {
	if len(q.Patterns) == 0 {
		return nil, errors.New("query: no patterns")
	}
	return compile(q)
}

func compile(q *Query) (*Plan, error) {
	pl := &Plan{Query: q, nvars: q.NumVars(), AlphaStep: -1, BetaStep: -1}
	bound := map[Var]bool{}
	for i, p := range q.Patterns {
		st := Step{Pattern: p}
		for pos := index.Pos(0); pos < 3; pos++ {
			a := p.Atom(pos)
			if !a.IsVar() {
				st.Bound[pos] = true
				continue
			}
			if bound[a.Var] {
				st.Bound[pos] = true
				st.JoinVars = append(st.JoinVars, VarPos{a.Var, pos})
			} else {
				st.NewVars = append(st.NewVars, VarPos{a.Var, pos})
				if a.Var == q.Alpha && pl.AlphaStep < 0 {
					pl.AlphaStep, pl.AlphaPos = i, pos
				}
				if a.Var == q.Beta && pl.BetaStep < 0 {
					pl.BetaStep, pl.BetaPos = i, pos
				}
			}
		}
		kind, order, err := accessPath(st.Bound)
		if err != nil {
			return nil, fmt.Errorf("query: pattern %d (%s): %w", i, p, err)
		}
		st.Kind, st.Order = kind, order
		levels := order.Levels()
		st.Key0, st.Key1 = p.Atom(levels[0]), p.Atom(levels[1])
		st.Static = len(st.JoinVars) == 0
		for _, vp := range st.NewVars {
			bound[vp.Var] = true
		}
		pl.Steps = append(pl.Steps, st)
	}
	if err := pl.anchorFilters(); err != nil {
		return nil, err
	}
	pl.iface = pl.interfaces()
	return pl, nil
}

// Iface returns the interface variables of step boundary i, for i in
// [0, len(Steps)]: the variables bound at a step before i and used at a step
// at or after i. They are the cache-key variables of every suffix cache
// (ctj, walk): two prefixes that agree on them have the same suffix joins.
// Callers must not modify the slice.
func (pl *Plan) Iface(i int) []Var { return pl.iface[i] }

// interfaces computes Iface for every boundary. A filter anchored at step i
// reads its variables at i: that is a use, and ignoring it would drop the
// variable from intermediate interfaces and serve cached suffixes across
// bindings the filter distinguishes.
func (pl *Plan) interfaces() [][]Var {
	firstBound := make([]int, pl.nvars)
	lastUse := make([]int, pl.nvars)
	for v := range firstBound {
		firstBound[v], lastUse[v] = -1, -1
	}
	for i, st := range pl.Steps {
		for _, a := range []Atom{st.Pattern.S, st.Pattern.P, st.Pattern.O} {
			if a.IsVar() {
				if firstBound[a.Var] == -1 {
					firstBound[a.Var] = i
				}
				lastUse[a.Var] = i
			}
		}
		for _, fi := range st.Filters {
			for _, v := range pl.Query.Filters[fi].Vars() {
				if lastUse[v] < i {
					lastUse[v] = i
				}
			}
		}
	}
	iface := make([][]Var, len(pl.Steps)+1)
	for i := range iface {
		for v := 0; v < pl.nvars; v++ {
			if firstBound[v] >= 0 && firstBound[v] < i && lastUse[v] >= i {
				iface[i] = append(iface[i], Var(v))
			}
		}
	}
	return iface
}

// anchorFilters attaches each query filter to the earliest step at which
// all its variables are bound (i.e. the latest first-binding step among
// them). Checking a filter as soon as it is decidable prunes exact
// enumerations early and rejects doomed walks before they spend more span
// lookups.
func (pl *Plan) anchorFilters() error {
	if len(pl.Query.Filters) == 0 {
		return nil
	}
	firstBound := make([]int, pl.nvars)
	for i := range firstBound {
		firstBound[i] = -1
	}
	for i := range pl.Steps {
		for _, vp := range pl.Steps[i].NewVars {
			firstBound[vp.Var] = i
		}
	}
	for fi := range pl.Query.Filters {
		anchor := 0
		for _, v := range pl.Query.Filters[fi].Vars() {
			if int(v) >= pl.nvars || firstBound[v] < 0 {
				return fmt.Errorf("query: filter %d references ?%d, which no step binds", fi, v)
			}
			if firstBound[v] > anchor {
				anchor = firstBound[v]
			}
		}
		pl.Steps[anchor].Filters = append(pl.Steps[anchor].Filters, fi)
	}
	return nil
}

// HasFilters reports whether the plan carries any filter.
func (pl *Plan) HasFilters() bool { return len(pl.Query.Filters) > 0 }

// StepFiltersOK evaluates the filters anchored at step i under the
// bindings. Callers should guard with len(pl.Steps[i].Filters) > 0 on hot
// paths; the helper itself is allocation-free.
func (pl *Plan) StepFiltersOK(i int, ns NumSource, b Bindings) bool {
	for _, fi := range pl.Steps[i].Filters {
		if !pl.Query.Filters[fi].Eval(ns, b) {
			return false
		}
	}
	return true
}

// FiltersOK evaluates every filter of the plan under fully populated
// bindings — the all-at-once check used where per-step anchoring does not
// apply (e.g. path-probability enumeration over preset bindings).
func (pl *Plan) FiltersOK(ns NumSource, b Bindings) bool {
	for fi := range pl.Query.Filters {
		if !pl.Query.Filters[fi].Eval(ns, b) {
			return false
		}
	}
	return true
}

// AccessFor exposes the access-path derivation for a bound-position mask,
// for engines that need ad-hoc constrained lookups (e.g. the Pr(b)
// computations of Audit Join, which additionally bind the counted variable).
func AccessFor(bound [3]bool) (AccessKind, index.Order, error) {
	return accessPath(bound)
}

// accessPath maps a bound-position mask to an index order. The four
// maintained orders are spo, ops, pso and pos (paper §V-A).
func accessPath(b [3]bool) (AccessKind, index.Order, error) {
	switch {
	case !b[0] && !b[1] && !b[2]:
		return AccessFull, index.SPO, nil
	case b[0] && !b[1] && !b[2]:
		return AccessL1, index.SPO, nil
	case !b[0] && b[1] && !b[2]:
		return AccessL1, index.PSO, nil
	case !b[0] && !b[1] && b[2]:
		return AccessL1, index.OPS, nil
	case b[0] && b[1] && !b[2]:
		return AccessL2, index.PSO, nil // (p, s) hash level
	case !b[0] && b[1] && b[2]:
		return AccessL2, index.POS, nil // (p, o) hash level
	case b[0] && b[1] && b[2]:
		return AccessMembership, index.PSO, nil
	default: // s and o bound, p free
		return 0, 0, fmt.Errorf("access with subject and object bound but predicate free is not served by the four maintained index orders")
	}
}

// Explain renders the plan's access paths and statistics-based estimates —
// the EXPLAIN view of a compiled exploration query. The estimator provides
// the cardinalities (see internal/card); pass nil to print structure only.
func (pl *Plan) Explain(est Estimator) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s\n", pl.Query)
	for i := range pl.Steps {
		st := &pl.Steps[i]
		fmt.Fprintf(&b, "  step %d: %-24s access=%s/%s", i, st.Pattern.String(), st.Kind, st.Order)
		if len(st.JoinVars) > 0 {
			b.WriteString(" join=")
			for k, jv := range st.JoinVars {
				if k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "?%d@%s", jv.Var, jv.Pos)
			}
		}
		if len(st.NewVars) > 0 {
			b.WriteString(" binds=")
			for k, nv := range st.NewVars {
				if k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "?%d@%s", nv.Var, nv.Pos)
			}
		}
		if len(st.Filters) > 0 {
			b.WriteString(" filters=")
			for k, fi := range st.Filters {
				if k > 0 {
					b.WriteByte(',')
				}
				b.WriteString(pl.Query.Filters[fi].String())
			}
		}
		if est != nil {
			fmt.Fprintf(&b, " |G_i|=%.0f", est.PatternCard(st.Pattern).Value)
		}
		b.WriteByte('\n')
	}
	if est != nil {
		js := est.JoinSize(pl)
		fmt.Fprintf(&b, "  estimated join size: %.1f (confidence %.1f)\n", js.Value, js.Confidence)
	}
	return b.String()
}

// Bindings is a variable assignment under construction during a walk or a
// trie traversal. Index by Var.
type Bindings []rdf.ID

// NewBindings returns a binding array for the plan with all slots clear.
func (pl *Plan) NewBindings() Bindings {
	b := make(Bindings, pl.nvars)
	b.Reset()
	return b
}

// Reset clears every slot, so walk runners can reuse one binding buffer
// instead of allocating per walk.
func (b Bindings) Reset() {
	for i := range b {
		b[i] = rdf.NoID
	}
}

// atomValue resolves an atom to a concrete ID under the bindings. The atom
// must be a constant or a bound variable.
func atomValue(a Atom, b Bindings) rdf.ID {
	if a.IsVar() {
		return b[a.Var]
	}
	return a.ID
}

// ResolveSpan returns the candidate set of step i under the bindings: the
// span, in the step's index order, of triples matching the pattern's bound
// positions. For AccessMembership the span has length 0 or 1 (conceptually);
// the bool reports whether the fully bound triple exists.
func (st *Step) ResolveSpan(store *index.Store, b Bindings) (index.Span, bool) {
	switch st.Kind {
	case AccessFull:
		sp := store.FullSpan(st.Order)
		return sp, !sp.Empty()
	case AccessL1:
		sp := store.SpanL1(st.Order, atomValue(st.Key0, b))
		return sp, !sp.Empty()
	case AccessL2:
		sp := store.SpanL2(st.Order, atomValue(st.Key0, b), atomValue(st.Key1, b))
		return sp, !sp.Empty()
	default: // AccessMembership
		return index.Span{}, store.Contains(st.BoundTriple(b))
	}
}

// BoundTriple materializes the step's pattern under the bindings; every
// position must be a constant or a bound variable (a membership step).
func (st *Step) BoundTriple(b Bindings) rdf.Triple {
	return rdf.Triple{
		S: atomValue(st.Pattern.S, b),
		P: atomValue(st.Pattern.P, b),
		O: atomValue(st.Pattern.O, b),
	}
}

// StaticSpan is the pre-resolved candidate set of a Static step: Span and OK
// are exactly what ResolveSpan would return for any bindings. Entries for
// non-static steps are zero and must not be consulted.
type StaticSpan struct {
	Span index.Span
	OK   bool
}

// ResolveStatic pre-resolves every Static step of the plan against the
// store, hoisting the span lookups (and membership checks) of
// constant-bound steps out of the per-walk loop. Walk runners call this once
// at construction and consult the result instead of ResolveSpan for steps
// with Static set.
func (pl *Plan) ResolveStatic(store *index.Store) []StaticSpan {
	out := make([]StaticSpan, len(pl.Steps))
	for i := range pl.Steps {
		st := &pl.Steps[i]
		if !st.Static {
			continue
		}
		sp, ok := st.ResolveSpan(store, nil)
		out[i] = StaticSpan{Span: sp, OK: ok}
	}
	return out
}

// Bind records the values a triple gives to the step's new variables.
func (st *Step) Bind(t rdf.Triple, b Bindings) {
	for _, vp := range st.NewVars {
		b[vp.Var] = index.Field(t, vp.Pos)
	}
}

// Unbind clears the step's new variables (for backtracking traversals).
func (st *Step) Unbind(b Bindings) {
	for _, vp := range st.NewVars {
		b[vp.Var] = rdf.NoID
	}
}

// Matches reports whether triple t matches the step's pattern under the
// bindings (all bound positions agree). Used by exact engines when scanning
// candidate spans.
func (st *Step) Matches(t rdf.Triple, b Bindings) bool {
	for pos := index.Pos(0); pos < 3; pos++ {
		if st.Bound[pos] && index.Field(t, pos) != atomValue(st.Pattern.Atom(pos), b) {
			return false
		}
	}
	return true
}
