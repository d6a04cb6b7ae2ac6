// Package sparql parses and prints the SPARQL fragment of the paper's
// exploration queries (Fig. 4), extended with the query surface real query
// logs carry:
//
//	SELECT ?α COUNT(DISTINCT ?β) WHERE {
//	    a1 b1 c1 . a2 b2 c2 . ... an bn cn .
//	    FILTER(?x + 1 > 5 && ?name != "Alice")
//	} GROUP BY ?α
//
// The grouping clause is optional (then only the aggregate is selected),
// the DISTINCT keyword is optional, and each term is a variable (?name), an
// IRI (<...>), the keyword `a` (rdf:type), or a literal ("..." with
// optional @lang or ^^<datatype>) in the object position.
//
// Three constructs extend the fragment:
//
//   - FILTER(rel && rel && ...): each rel compares two arithmetic
//     expressions over variables, numeric constants, IRIs and literals with
//     =, !=, <, <=, > or >=. Ordered comparisons and arithmetic apply to
//     values the store's numeric-literal precompute knows; parentheses
//     group arithmetic (not comparisons).
//   - Fixed-length property paths in the predicate position: <p>/<q>
//     chains, <p>{n} repetitions (1 ≤ n ≤ 8) and combinations, desugared at
//     parse time into fresh-variable pattern chains (the fresh variables
//     are named _p0, _p1, ... avoiding collisions). Path elements must be
//     IRIs (or `a`).
//   - UNION of group graph patterns: WHERE { {...} UNION {...} }. The WHERE
//     block either is a plain pattern body or consists entirely of braced
//     groups joined by UNION; each group is a full fragment body (patterns,
//     filters, paths) and the SELECT clause is shared.
//
// This is deliberately a fragment parser, not a SPARQL implementation: the
// engines in this repository evaluate exactly this surface, and a parser
// for just that shape keeps error messages precise.
package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// maxPathHops caps the number of patterns one property path may desugar
// into, bounding parser output size against adversarial input (p{8}/q{8}).
const maxPathHops = 16

// maxPathRepeat caps one {n} repetition.
const maxPathRepeat = 8

// Parsed is the result of parsing: the query (or union branches) plus the
// variable-name tables.
type Parsed struct {
	// Query is the parsed query; for UNION queries it is the first branch
	// (legacy callers that pre-date UNION keep working on plain queries).
	Query *query.Query
	// Branches holds every branch of a UNION query, in source order; it has
	// exactly one entry for plain queries. All branches share one variable
	// namespace (Names/VarName).
	Branches []*query.Query
	// Names maps variable names (without '?') to variable indices.
	Names map[string]query.Var
	// rev is the inverse of Names, built once at parse time: VarName is
	// called per group bar during chart rendering, where a linear scan over
	// Names would be quadratic in the variable count.
	rev []string
}

// IsUnion reports whether the source had UNION branches.
func (p *Parsed) IsUnion() bool { return len(p.Branches) > 1 }

// Union wraps the branches as a query.UnionQuery (single-branch for plain
// queries), the IR handed to CompileUnion.
func (p *Parsed) Union() *query.UnionQuery {
	return &query.UnionQuery{Branches: p.Branches}
}

// VarName returns the name of variable v, or its index as a fallback.
func (p *Parsed) VarName(v query.Var) string {
	if int(v) >= 0 && int(v) < len(p.rev) && p.rev[v] != "" {
		return p.rev[v]
	}
	return fmt.Sprintf("v%d", v)
}

// buildRev populates the reverse name table from Names.
func (p *Parsed) buildRev() {
	p.rev = make([]string, len(p.Names))
	for name, v := range p.Names {
		if int(v) >= 0 && int(v) < len(p.rev) {
			p.rev[v] = name
		}
	}
}

// Parse parses the fragment, interning constants into d (constants absent
// from the data will simply match nothing).
func Parse(src string, d *rdf.Dict) (*Parsed, error) {
	p := &parser{lex: newLexer(src), dict: d, names: map[string]query.Var{}}
	branches, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	p.renameFreshVars()
	if len(branches) > 1 {
		u := &query.UnionQuery{Branches: branches}
		if err := u.Validate(); err != nil {
			return nil, err
		}
	} else {
		if err := branches[0].Validate(); err != nil {
			return nil, err
		}
	}
	out := &Parsed{Query: branches[0], Branches: branches, Names: p.names}
	out.buildRev()
	return out, nil
}

type parser struct {
	lex   *lexer
	dict  *rdf.Dict
	names map[string]query.Var
	// fresh counts the placeholder variables minted by path desugaring;
	// their temporary names contain a NUL byte no token can carry, and
	// renameFreshVars swaps in collision-free printable names at the end.
	fresh int
}

func (p *parser) varOf(name string) query.Var {
	if v, ok := p.names[name]; ok {
		return v
	}
	v := query.Var(len(p.names))
	p.names[name] = v
	return v
}

// freshVar mints a path-joint variable under a placeholder name.
func (p *parser) freshVar() query.Var {
	name := fmt.Sprintf("\x00p%d", p.fresh)
	p.fresh++
	return p.varOf(name)
}

// renameFreshVars gives path placeholders printable names (_p0, _p1, ...)
// that do not collide with user variables, so Print output re-parses.
func (p *parser) renameFreshVars() {
	if p.fresh == 0 {
		return
	}
	next := 0
	for i := 0; i < p.fresh; i++ {
		old := fmt.Sprintf("\x00p%d", i)
		v, ok := p.names[old]
		if !ok {
			continue
		}
		var name string
		for {
			name = fmt.Sprintf("_p%d", next)
			next++
			if _, taken := p.names[name]; !taken {
				break
			}
		}
		delete(p.names, old)
		p.names[name] = v
	}
}

// parseQuery parses the whole source and returns the union branches (one
// branch for plain queries).
func (p *parser) parseQuery() ([]*query.Query, error) {
	if err := p.keyword("SELECT"); err != nil {
		return nil, err
	}
	alpha, beta := query.NoVar, query.NoVar
	var agg query.AggFunc
	distinct := false
	// Optional group variable before the aggregate.
	tok := p.lex.peek()
	if tok.kind == tokVar {
		p.lex.next()
		alpha = p.varOf(tok.text)
	}
	aggTok := p.lex.next()
	switch {
	case aggTok.isKeyword("COUNT"):
		agg = query.AggCount
	case aggTok.isKeyword("SUM"):
		agg = query.AggSum
	case aggTok.isKeyword("AVG"):
		agg = query.AggAvg
	default:
		return nil, p.errf(aggTok, "expected COUNT, SUM or AVG, got %s", aggTok)
	}
	if err := p.punct("("); err != nil {
		return nil, err
	}
	if p.lex.peek().isKeyword("DISTINCT") {
		p.lex.next()
		distinct = true
	}
	tok = p.lex.next()
	if tok.kind != tokVar {
		return nil, p.errf(tok, "expected counted variable, got %s", tok)
	}
	beta = p.varOf(tok.text)
	if err := p.punct(")"); err != nil {
		return nil, err
	}
	if err := p.keyword("WHERE"); err != nil {
		return nil, err
	}
	if err := p.punct("{"); err != nil {
		return nil, err
	}
	newBranch := func() *query.Query {
		return &query.Query{Alpha: alpha, Beta: beta, Distinct: distinct, Agg: agg}
	}
	var branches []*query.Query
	if p.lex.peek().isPunct("{") {
		// Union of braced groups: { {body} UNION {body} ... }.
		for {
			if err := p.punct("{"); err != nil {
				return nil, err
			}
			q := newBranch()
			if err := p.parseBody(q); err != nil {
				return nil, err
			}
			branches = append(branches, q)
			tok := p.lex.peek()
			if tok.isKeyword("UNION") {
				p.lex.next()
				continue
			}
			break
		}
		if err := p.punct("}"); err != nil {
			return nil, err
		}
	} else {
		q := newBranch()
		if err := p.parseBody(q); err != nil {
			return nil, err
		}
		branches = append(branches, q)
	}
	// Optional GROUP BY.
	if p.lex.peek().isKeyword("GROUP") {
		p.lex.next()
		if err := p.keyword("BY"); err != nil {
			return nil, err
		}
		tok := p.lex.next()
		if tok.kind != tokVar {
			return nil, p.errf(tok, "expected variable after GROUP BY")
		}
		v, ok := p.names[tok.text]
		if !ok {
			return nil, p.errf(tok, "GROUP BY variable ?%s not used in the query", tok.text)
		}
		if alpha != query.NoVar && alpha != v {
			return nil, p.errf(tok, "GROUP BY ?%s does not match the selected variable", tok.text)
		}
		for _, q := range branches {
			q.Alpha = v
		}
	} else if alpha != query.NoVar {
		return nil, p.errf(p.lex.peek(), "selected variable requires a GROUP BY clause")
	}
	if tok := p.lex.next(); tok.kind != tokEOF {
		return nil, p.errf(tok, "unexpected trailing %s", tok)
	}
	return branches, nil
}

// parseBody parses one group body — triples (with paths) and FILTERs —
// stopping at (and consuming) the closing '}'.
func (p *parser) parseBody(q *query.Query) error {
	for {
		tok := p.lex.peek()
		switch {
		case tok.isPunct("}"):
			p.lex.next()
			return nil
		case tok.kind == tokEOF:
			return p.errf(tok, "unterminated WHERE block: missing '}'")
		case tok.isKeyword("FILTER"):
			p.lex.next()
			if err := p.parseFilter(q); err != nil {
				return err
			}
		default:
			if err := p.parseTriple(q); err != nil {
				return err
			}
		}
		// Statements are '.'-separated; the final dot is optional, and a
		// dot after FILTER is tolerated.
		if p.lex.peek().isPunct(".") {
			p.lex.next()
		}
	}
}

// parseTriple parses one triple — possibly with a property path in the
// predicate position — and appends the desugared patterns to q.
func (p *parser) parseTriple(q *query.Query) error {
	s, err := p.parseTerm(false)
	if err != nil {
		return err
	}
	elts, single, err := p.parsePredicate()
	if err != nil {
		return err
	}
	o, err := p.parseTerm(true)
	if err != nil {
		return err
	}
	if elts == nil {
		q.Patterns = append(q.Patterns, query.Pattern{S: s, P: single, O: o})
		return nil
	}
	hops := 0
	for _, e := range elts {
		hops += e.count
	}
	prev := s
	hop := 0
	for _, e := range elts {
		for r := 0; r < e.count; r++ {
			hop++
			next := o
			if hop < hops {
				next = query.V(p.freshVar())
			}
			q.Patterns = append(q.Patterns, query.Pattern{S: prev, P: query.C(e.pred), O: next})
			prev = next
		}
	}
	return nil
}

// pathElt is one element of a property path: a predicate IRI repeated
// count times.
type pathElt struct {
	pred  rdf.ID
	count int
}

// parsePredicate parses the predicate position. It returns either a path
// (elts non-nil: a '/'-chain of IRIs with optional {n} repetitions) or a
// single predicate atom (variable or constant) in single.
func (p *parser) parsePredicate() (elts []pathElt, single query.Atom, err error) {
	tok := p.lex.next()
	var first query.Atom
	switch tok.kind {
	case tokVar:
		// Variables cannot start a path; `?s ?p ?o` stays a plain pattern.
		return nil, query.V(p.varOf(tok.text)), nil
	case tokIRI:
		first = query.C(p.dict.InternIRI(tok.text))
	case tokA:
		first = query.C(p.dict.InternIRI(rdf.RDFType))
	default:
		return nil, query.Atom{}, p.errf(tok, "expected a predicate, got %s", tok)
	}
	if !p.lex.peek().isOp("/") && !p.lex.peek().isPunct("{") {
		return nil, first, nil
	}
	// Path mode: the first element plus any following /element parts, each
	// with an optional {n}.
	hops := 0
	appendElt := func(pred rdf.ID, at token) error {
		count := 1
		if p.lex.peek().isPunct("{") {
			p.lex.next()
			ntok := p.lex.next()
			if ntok.kind != tokNum || ntok.num != float64(int(ntok.num)) || int(ntok.num) < 1 {
				return p.errf(ntok, "expected a positive integer repetition, got %s", ntok)
			}
			count = int(ntok.num)
			if count > maxPathRepeat {
				return p.errf(ntok, "path repetition {%d} exceeds the maximum {%d}", count, maxPathRepeat)
			}
			if err := p.punct("}"); err != nil {
				return err
			}
		}
		hops += count
		if hops > maxPathHops {
			return p.errf(at, "property path expands to %d+ patterns; the maximum is %d", hops, maxPathHops)
		}
		elts = append(elts, pathElt{pred: pred, count: count})
		return nil
	}
	if err := appendElt(first.ID, tok); err != nil {
		return nil, query.Atom{}, err
	}
	for p.lex.peek().isOp("/") {
		p.lex.next()
		tok := p.lex.next()
		var pred rdf.ID
		switch tok.kind {
		case tokIRI:
			pred = p.dict.InternIRI(tok.text)
		case tokA:
			pred = p.dict.InternIRI(rdf.RDFType)
		default:
			return nil, query.Atom{}, p.errf(tok, "property path elements must be IRIs, got %s", tok)
		}
		if err := appendElt(pred, tok); err != nil {
			return nil, query.Atom{}, err
		}
	}
	return elts, query.Atom{}, nil
}

// parseFilter parses FILTER(rel && rel && ...) and appends one
// query.Filter per conjunct to q.
func (p *parser) parseFilter(q *query.Query) error {
	if err := p.punct("("); err != nil {
		return err
	}
	for {
		f, err := p.parseRel()
		if err != nil {
			return err
		}
		q.Filters = append(q.Filters, f)
		tok := p.lex.peek()
		if tok.isOp("&&") {
			p.lex.next()
			continue
		}
		break
	}
	return p.punct(")")
}

// parseRel parses one comparison: expr cmp expr.
func (p *parser) parseRel() (query.Filter, error) {
	l, err := p.parseSum()
	if err != nil {
		return query.Filter{}, err
	}
	tok := p.lex.next()
	var op query.CmpOp
	switch {
	case tok.isOp("="):
		op = query.CmpEq
	case tok.isOp("!="):
		op = query.CmpNe
	case tok.isOp("<"):
		op = query.CmpLt
	case tok.isOp("<="):
		op = query.CmpLe
	case tok.isOp(">"):
		op = query.CmpGt
	case tok.isOp(">="):
		op = query.CmpGe
	default:
		return query.Filter{}, p.errf(tok, "expected a comparison operator, got %s", tok)
	}
	r, err := p.parseSum()
	if err != nil {
		return query.Filter{}, err
	}
	return query.Filter{Op: op, L: l, R: r}, nil
}

func (p *parser) parseSum() (*query.Expr, error) {
	l, err := p.parseProduct()
	if err != nil {
		return nil, err
	}
	for {
		tok := p.lex.peek()
		var op query.ArithOp
		switch {
		case tok.isOp("+"):
			op = query.ArithAdd
		case tok.isOp("-"):
			op = query.ArithSub
		default:
			return l, nil
		}
		p.lex.next()
		r, err := p.parseProduct()
		if err != nil {
			return nil, err
		}
		l = query.EArith(op, l, r)
	}
}

func (p *parser) parseProduct() (*query.Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		tok := p.lex.peek()
		var op query.ArithOp
		switch {
		case tok.isOp("*"):
			op = query.ArithMul
		case tok.isOp("/"):
			op = query.ArithDiv
		default:
			return l, nil
		}
		p.lex.next()
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = query.EArith(op, l, r)
	}
}

func (p *parser) parseFactor() (*query.Expr, error) {
	tok := p.lex.next()
	switch {
	case tok.kind == tokVar:
		return query.EVar(p.varOf(tok.text)), nil
	case tok.kind == tokNum:
		return query.ENum(tok.num), nil
	case tok.isOp("-"):
		f, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		if f.Kind == query.ExprNum {
			return query.ENum(-f.Num), nil
		}
		return query.EArith(query.ArithSub, query.ENum(0), f), nil
	case tok.kind == tokIRI:
		return query.ETerm(p.dict.InternIRI(tok.text)), nil
	case tok.kind == tokLiteral:
		return query.ETerm(p.dict.Intern(tok.lit)), nil
	case tok.isPunct("("):
		e, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		if err := p.punct(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf(tok, "expected a filter operand, got %s", tok)
	}
}

func (p *parser) parseTerm(allowLiteral bool) (query.Atom, error) {
	tok := p.lex.next()
	switch tok.kind {
	case tokVar:
		return query.V(p.varOf(tok.text)), nil
	case tokIRI:
		return query.C(p.dict.InternIRI(tok.text)), nil
	case tokA:
		return query.C(p.dict.InternIRI(rdf.RDFType)), nil
	case tokLiteral:
		if !allowLiteral {
			return query.Atom{}, p.errf(tok, "literals are only allowed in the object position")
		}
		return query.C(p.dict.Intern(tok.lit)), nil
	default:
		return query.Atom{}, p.errf(tok, "expected a term, got %s", tok)
	}
}

func (p *parser) keyword(kw string) error {
	tok := p.lex.next()
	if !tok.isKeyword(kw) {
		return p.errf(tok, "expected %s, got %s", kw, tok)
	}
	return nil
}

func (p *parser) punct(s string) error {
	tok := p.lex.next()
	if tok.kind != tokPunct || tok.text != s {
		return p.errf(tok, "expected %q, got %s", s, tok)
	}
	return nil
}

func (p *parser) errf(tok token, format string, args ...any) error {
	if tok.kind == tokError {
		return fmt.Errorf("sparql: offset %d: %s", tok.off, tok.text)
	}
	return fmt.Errorf("sparql: offset %d: %s", tok.off, fmt.Sprintf(format, args...))
}

// Print renders a query in the fragment's concrete syntax, resolving
// constants through the dictionary and variables through names (falling
// back to ?vN). Property paths print in desugared form; Print output
// re-parses to the same query.
func Print(q *query.Query, d *rdf.Dict, names map[string]query.Var) string {
	var b strings.Builder
	printHeader(&b, q, nameFunc(names))
	b.WriteString(" WHERE {\n")
	printBody(&b, q, d, nameFunc(names), "  ")
	b.WriteString("}")
	printGroupBy(&b, q, nameFunc(names))
	return b.String()
}

// PrintUnion renders a union query; with a single branch it matches Print.
// SPARQL names α and β once, in the header, for every branch, so each
// branch prints its own α and β under branch 0's names, and a variable of
// the branch whose name would collide with them is renamed.
func PrintUnion(u *query.UnionQuery, d *rdf.Dict, names map[string]query.Var) string {
	if len(u.Branches) == 1 {
		return Print(u.Branches[0], d, names)
	}
	nameOf := nameFunc(names)
	q0 := u.Branches[0]
	var b strings.Builder
	printHeader(&b, q0, nameOf)
	b.WriteString(" WHERE {\n")
	for i, q := range u.Branches {
		if i > 0 {
			b.WriteString("  UNION\n")
		}
		b.WriteString("  {\n")
		printBody(&b, q, d, branchNames(q, q0, nameOf), "    ")
		b.WriteString("  }\n")
	}
	b.WriteString("}")
	printGroupBy(&b, q0, nameOf)
	return b.String()
}

// branchNames names branch q's variables for a union headed by q0: q's α
// and β take q0's names, and any other variable whose name is one of those
// gets a fresh name unused in the branch.
func branchNames(q, q0 *query.Query, nameOf func(query.Var) string) func(query.Var) string {
	n := max(q.NumVars(), int(q.Beta)+1)
	if q.Alpha != query.NoVar {
		n = max(n, int(q.Alpha)+1)
	}
	out := make([]string, n)
	used := make(map[string]bool, n)
	for v := range out {
		out[v] = nameOf(query.Var(v))
		used[out[v]] = true
	}
	header := map[string]bool{nameOf(q0.Beta): true}
	if q0.Alpha != query.NoVar {
		header[nameOf(q0.Alpha)] = true
	}
	for v, n := range out {
		if header[n] && query.Var(v) != q.Alpha && query.Var(v) != q.Beta {
			for used[n] {
				n += "_"
			}
			used[n] = true
			out[v] = n
		}
	}
	out[q.Beta] = nameOf(q0.Beta)
	if q.Alpha != query.NoVar {
		out[q.Alpha] = nameOf(q0.Alpha)
	}
	return func(v query.Var) string {
		if int(v) < len(out) {
			return out[v]
		}
		return nameOf(v)
	}
}

func nameFunc(names map[string]query.Var) func(query.Var) string {
	rev := make(map[query.Var]string, len(names))
	for n, v := range names {
		rev[v] = n
	}
	return func(v query.Var) string {
		if n, ok := rev[v]; ok {
			return n
		}
		return fmt.Sprintf("v%d", v)
	}
}

func printHeader(b *strings.Builder, q *query.Query, nameOf func(query.Var) string) {
	b.WriteString("SELECT ")
	if q.Alpha != query.NoVar {
		b.WriteString("?" + nameOf(q.Alpha) + " ")
	}
	b.WriteString(q.Agg.String())
	b.WriteString("(")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString("?" + nameOf(q.Beta) + ")")
}

func printGroupBy(b *strings.Builder, q *query.Query, nameOf func(query.Var) string) {
	if q.Alpha != query.NoVar {
		b.WriteString(" GROUP BY ?" + nameOf(q.Alpha))
	}
}

func printBody(b *strings.Builder, q *query.Query, d *rdf.Dict, nameOf func(query.Var) string, indent string) {
	atom := func(a query.Atom) string {
		if a.IsVar() {
			return "?" + nameOf(a.Var)
		}
		return d.Term(a.ID).String()
	}
	for _, p := range q.Patterns {
		fmt.Fprintf(b, "%s%s %s %s .\n", indent, atom(p.S), atom(p.P), atom(p.O))
	}
	for i := range q.Filters {
		f := &q.Filters[i]
		fmt.Fprintf(b, "%sFILTER(%s %s %s)\n", indent,
			printExpr(f.L, d, nameOf), f.Op, printExpr(f.R, d, nameOf))
	}
}

// printExpr renders a filter expression in concrete syntax.
func printExpr(e *query.Expr, d *rdf.Dict, nameOf func(query.Var) string) string {
	switch e.Kind {
	case query.ExprVar:
		return "?" + nameOf(e.Var)
	case query.ExprNum:
		return strconv.FormatFloat(e.Num, 'g', -1, 64)
	case query.ExprTerm:
		return d.Term(e.ID).String()
	case query.ExprArith:
		return fmt.Sprintf("(%s %s %s)",
			printExpr(e.L, d, nameOf), e.Op, printExpr(e.R, d, nameOf))
	}
	return "?!"
}
