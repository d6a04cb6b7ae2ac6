package sparql

import (
	"strings"
	"testing"

	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/testkit"
)

// TestParseFilter covers the FILTER grammar: comparisons, conjunctions,
// arithmetic, literals and IRIs as operands.
func TestParseFilter(t *testing.T) {
	d := rdf.NewDict()
	p, err := Parse(`SELECT COUNT(?y) WHERE { ?x <p> ?y . FILTER(?y > 5) }`, d)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Query
	if len(q.Filters) != 1 {
		t.Fatalf("got %d filters, want 1", len(q.Filters))
	}
	f := q.Filters[0]
	if f.Op != query.CmpGt || f.L.Kind != query.ExprVar || f.R.Kind != query.ExprNum || f.R.Num != 5 {
		t.Fatalf("unexpected filter %s", f.String())
	}

	// Conjunction splits into separate filters; arithmetic builds a tree.
	p, err = Parse(`SELECT COUNT(?y) WHERE {
		?x <p> ?y . ?x <q> ?z .
		FILTER(?y + ?z * 2 <= 10 && ?x != <http://e/a> && ?y >= 0 - 3)
	}`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Query.Filters) != 3 {
		t.Fatalf("got %d filters, want 3", len(p.Query.Filters))
	}
	if p.Query.Filters[0].L.Kind != query.ExprArith || p.Query.Filters[0].L.R.Op != query.ArithMul {
		t.Fatalf("precedence wrong: %s", p.Query.Filters[0].String())
	}
	if p.Query.Filters[1].Op != query.CmpNe || p.Query.Filters[1].R.Kind != query.ExprTerm {
		t.Fatalf("IRI operand wrong: %s", p.Query.Filters[1].String())
	}

	// String equality against a literal; unary minus; parenthesized sums.
	p, err = Parse(`SELECT COUNT(?y) WHERE {
		?x <name> ?y . ?x <age> ?n .
		FILTER(?y = "Alice") FILTER((?n + 1) * 2 < -4)
	}`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Query.Filters) != 2 {
		t.Fatalf("got %d filters, want 2", len(p.Query.Filters))
	}
	if p.Query.Filters[1].R.Kind != query.ExprNum || p.Query.Filters[1].R.Num != -4 {
		t.Fatalf("unary minus wrong: %s", p.Query.Filters[1].String())
	}
}

// TestParseFilterErrors pins positioned errors for the new grammar.
func TestParseFilterErrors(t *testing.T) {
	d := rdf.NewDict()
	cases := []struct{ src, want string }{
		{`SELECT COUNT(?y) WHERE { ?x <p> ?y . FILTER(?y) }`, "comparison"},
		{`SELECT COUNT(?y) WHERE { ?x <p> ?y . FILTER(?y > ) }`, "operand"},
		{`SELECT COUNT(?y) WHERE { ?x <p> ?y . FILTER(?z > 1) }`, "no pattern"},
		{`SELECT COUNT(?y) WHERE { ?x <p> ?y . FILTER(?y ! 1) }`, "'='"},
		{`SELECT COUNT(?y) WHERE { ?x <p> ?y . FILTER(1 > 2) }`, "no variable"},
	}
	for _, c := range cases {
		_, err := Parse(c.src, d)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want mention of %q", c.src, err, c.want)
		}
	}
}

// TestParsePath covers fixed-length property paths: /-chains and {n}
// repetitions desugar into fresh-variable chains.
func TestParsePath(t *testing.T) {
	d := rdf.NewDict()
	p, err := Parse(`SELECT COUNT(?y) WHERE { ?x <p>/<q> ?y }`, d)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Query
	if len(q.Patterns) != 2 {
		t.Fatalf("got %d patterns, want 2", len(q.Patterns))
	}
	// ?x <p> ?_p0 . ?_p0 <q> ?y
	if !q.Patterns[0].O.IsVar() || q.Patterns[0].O.Var != q.Patterns[1].S.Var {
		t.Fatalf("path joint not chained: %v", q.Patterns)
	}
	joint := q.Patterns[0].O.Var
	if name := p.VarName(joint); !strings.HasPrefix(name, "_p") {
		t.Fatalf("fresh var name = %q, want _p prefix", name)
	}

	p, err = Parse(`SELECT COUNT(?y) WHERE { ?x <p>{3} ?y }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Query.Patterns) != 3 {
		t.Fatalf("{3} expanded to %d patterns, want 3", len(p.Query.Patterns))
	}
	for _, pat := range p.Query.Patterns {
		if pat.P.IsVar() {
			t.Fatal("path patterns must have constant predicates")
		}
	}

	p, err = Parse(`SELECT COUNT(?y) WHERE { ?x <p>{2}/<q> ?y }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Query.Patterns) != 3 {
		t.Fatalf("{2}/<q> expanded to %d patterns, want 3", len(p.Query.Patterns))
	}

	// A user variable named like a fresh one does not collide.
	p, err = Parse(`SELECT COUNT(?_p0) WHERE { ?x <p>/<q> ?_p0 }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Query.Patterns[0].O.Var == p.Names["_p0"] {
		t.Fatal("fresh var collided with user ?_p0")
	}

	// Errors: zero/huge repetitions, variable path elements.
	for _, src := range []string{
		`SELECT COUNT(?y) WHERE { ?x <p>{0} ?y }`,
		`SELECT COUNT(?y) WHERE { ?x <p>{99} ?y }`,
		`SELECT COUNT(?y) WHERE { ?x <p>/?v ?y }`,
		`SELECT COUNT(?y) WHERE { ?x <p>{2.5} ?y }`,
	} {
		if _, err := Parse(src, d); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseUnion covers UNION of group graph patterns.
func TestParseUnion(t *testing.T) {
	d := rdf.NewDict()
	p, err := Parse(`SELECT ?a COUNT(?y) WHERE {
		{ ?a <p> ?y }
		UNION
		{ ?a <q> ?y . FILTER(?y > 1) }
	} GROUP BY ?a`, d)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsUnion() || len(p.Branches) != 2 {
		t.Fatalf("got %d branches, want 2", len(p.Branches))
	}
	if p.Query != p.Branches[0] {
		t.Fatal("Parsed.Query must alias the first branch")
	}
	if len(p.Branches[1].Filters) != 1 {
		t.Fatal("branch filter lost")
	}
	for _, q := range p.Branches {
		if q.Alpha == query.NoVar || q.Alpha != p.Names["a"] {
			t.Fatalf("branch Alpha = %d, want %d", q.Alpha, p.Names["a"])
		}
	}
	if err := p.Union().Validate(); err != nil {
		t.Fatal(err)
	}

	// Single braced group is a 1-branch union and behaves like a plain query.
	p, err = Parse(`SELECT COUNT(?y) WHERE { { ?x <p> ?y } }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsUnion() {
		t.Fatal("single group must not be a union")
	}

	// Beta must occur in every branch.
	_, err = Parse(`SELECT COUNT(?y) WHERE { { ?x <p> ?y } UNION { ?x <q> ?z } }`, d)
	if err == nil {
		t.Fatal("union with Beta missing from a branch must fail")
	}
}

// TestPrintRoundTripSurface: printing a parsed query (filters, desugared
// paths, unions) re-parses to the same shape.
func TestPrintRoundTripSurface(t *testing.T) {
	d := rdf.NewDict()
	srcs := []string{
		`SELECT COUNT(?y) WHERE { ?x <p> ?y . FILTER(?y + 1 > 5 && ?y != "Alice") }`,
		`SELECT ?a SUM(?y) WHERE { ?a <p>/<q>{2} ?y . FILTER(?y <= 2e3) } GROUP BY ?a`,
		`SELECT ?a COUNT(?y) WHERE { { ?a <p> ?y . FILTER(?y > 0 - 1) } UNION { ?a <q> ?y } } GROUP BY ?a`,
	}
	for _, src := range srcs {
		p1, err := Parse(src, d)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := PrintUnion(p1.Union(), d, p1.Names)
		p2, err := Parse(printed, d)
		if err != nil {
			t.Fatalf("re-Parse of %q: %v", printed, err)
		}
		if len(p1.Branches) != len(p2.Branches) {
			t.Fatalf("branch count changed: %d vs %d for %q", len(p1.Branches), len(p2.Branches), printed)
		}
		for i := range p1.Branches {
			if p1.Branches[i].Signature() != p2.Branches[i].Signature() {
				t.Fatalf("signature changed:\n%s\nvs\n%s\nprinted: %s",
					p1.Branches[i].Signature(), p2.Branches[i].Signature(), printed)
			}
		}
	}
}

// TestVarNameReverse checks the O(1) reverse table.
func TestVarNameReverse(t *testing.T) {
	d := rdf.NewDict()
	p, err := Parse(`SELECT ?a COUNT(?b) WHERE { ?a <p> ?b . ?b <q> ?c } GROUP BY ?a`, d)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range p.Names {
		if got := p.VarName(v); got != name {
			t.Errorf("VarName(%d) = %q, want %q", v, got, name)
		}
	}
	if got := p.VarName(query.Var(99)); got != "v99" {
		t.Errorf("VarName(99) = %q, want fallback v99", got)
	}
}

// TestPrintUnionRenamesBranchVariables: SPARQL names α and β once for every
// branch, so a union built in the IR whose branches number them differently
// must print each branch under branch 0's names and still mean the same
// query.
func TestPrintUnionRenamesBranchVariables(t *testing.T) {
	g := testkit.RandomGraph(4, 20, 2, 15, 200)
	p, q := query.C(20), query.C(21)
	u := &query.UnionQuery{Branches: []*query.Query{
		{Alpha: 0, Beta: 1, Patterns: []query.Pattern{{S: query.V(0), P: p, O: query.V(1)}}},
		{Alpha: 1, Beta: 0, Patterns: []query.Pattern{{S: query.V(0), P: q, O: query.V(1)}}},
		{Alpha: 2, Beta: 0, Patterns: []query.Pattern{
			{S: query.V(0), P: p, O: query.V(1)},
			{S: query.V(1), P: q, O: query.V(2)},
		}},
	}}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	want := testkit.BruteForceUnion(g, u)
	if len(want) == 0 {
		t.Fatal("empty fixture")
	}
	printed := PrintUnion(u, g.Dict, nil)
	p2, err := Parse(printed, g.Dict)
	if err != nil {
		t.Fatalf("re-Parse of %q: %v", printed, err)
	}
	if got := testkit.BruteForceUnion(g, p2.Union()); !testkit.MapsEqual(got, want, 1e-9) {
		t.Fatalf("printed union answers %v, IR union %v\nprinted: %s", got, want, printed)
	}
}
