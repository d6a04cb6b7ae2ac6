package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"kgexplore/internal/ctj"
	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/snap"
	"kgexplore/internal/sparql"
	"kgexplore/internal/workload"
)

// Workload sizes. The dataset is dbpedia-sim from kggen's fixed generator
// seed, and the exploration paths that every query derives from are a
// fixed population (generator seeds 1 and 2). The workload seed orders the
// sessions and queries and picks the ingest stream: with per-seed path
// populations the p90 latencies of two seeds differed by up to 2x, wider
// than any useful regression bound, because a few heavy charts dominate
// the tail.
const (
	populationSeed = 1 // workload.Surface's generator seed

	exploreScale = 0.2  // ~213K triples
	ingestScale  = 0.05 // ~53K triples: per-state ground truth is rebuilt after the run
	budgetMS     = 50   // fixed aj budget for every online request
	onlineTopN   = 10   // bars an aj chart returns
	explorePaths = 90   // ~270 steps, a pass of about 20 s
	sparqlPaths  = 180  // chart queries rendered as SPARQL; with Surface a pass of about 18 s
	sparqlSurf   = 90   // FILTER, UNION and path queries (30 each)
	ingestPaths  = 30   // reader chart queries on ingest-mixed
	ingestHeld   = 3000 // data triples held out of the base and added by the writer
	ingestDel    = 1500 // base triples the writer deletes
	batchAdds    = 32   // adds per ingest batch
	batchDels    = 16   // deletes per ingest batch
	shardCount   = 4
)

// Dataset is the generated graph with its index and exploration schema.
type Dataset struct {
	Graph  *rdf.Graph
	Store  *index.Store
	Schema explore.Schema
}

func generate(scale float64) (*Dataset, error) {
	g, schema, err := kggen.Generate(kggen.DBpediaSim(scale))
	if err != nil {
		return nil, fmt.Errorf("generate dbpedia-sim@%g: %w", scale, err)
	}
	return &Dataset{Graph: g, Store: index.Build(g), Schema: schema}, nil
}

// writeSnapshot writes the store as the .kgs file the server mmaps.
func writeSnapshot(path string, st *index.Store, source string) error {
	return snap.WriteFile(path, st, &snap.Meta{Source: source, CreatedUnix: time.Now().Unix()})
}

// label is the chart label of a group as the server renders it: the term's
// value, and "(all)" for an ungrouped result.
func label(d *rdf.Dict, id rdf.ID) string {
	if id == ctj.GlobalGroup {
		return "(all)"
	}
	return d.Term(id).Value
}

// labelTruth keys exact per-group results by label.
func labelTruth(d *rdf.Dict, exact map[rdf.ID]float64) map[string]float64 {
	out := make(map[string]float64, len(exact))
	for id, c := range exact {
		out[label(d, id)] = c
	}
	return out
}

// ExploreStep is one step of an exploration session.
type ExploreStep struct {
	Op       explore.Op
	Selected rdf.ID // the bar the simulated user clicks next
	Select   string // its label
	Truth    map[string]float64
	Query    *query.Query
	Plan     *query.Plan
	SPARQL   string
	LastStep bool // the session ends after this step
}

// populationPaths generates the fixed population of n exploration paths
// (paper §V-B) over st: two halves from population seeds 1 and 2,
// generated side by side because their CTJ ground truth takes seconds.
func populationPaths(st *index.Store, sc explore.Schema, n int) [][]workload.StepRecord {
	halves := make([][]workload.StepRecord, 2)
	var wg sync.WaitGroup
	for i := range halves {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := &workload.Generator{Store: st, Schema: sc, Seed: int64(i + 1), MaxSteps: 4}
			halves[i] = gen.Paths(n / 2)
		}(i)
	}
	wg.Wait()
	return halves
}

// exploreSessions returns the population's paths as sessions of steps, in
// an order the seed picks.
func exploreSessions(ds *Dataset, seed int64, n int) [][]ExploreStep {
	sessions := sessionsOf(ds.Graph.Dict, populationPaths(ds.Store, ds.Schema, n))
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(sessions), func(i, j int) { sessions[i], sessions[j] = sessions[j], sessions[i] })
	return sessions
}

// sessionsOf splits step records into sessions, one per path.
func sessionsOf(d *rdf.Dict, halves [][]workload.StepRecord) [][]ExploreStep {
	var sessions [][]ExploreStep
	for _, recs := range halves {
		for i, r := range recs {
			if i == 0 || r.Path != recs[i-1].Path {
				sessions = append(sessions, nil)
			}
			cur := &sessions[len(sessions)-1]
			*cur = append(*cur, ExploreStep{
				Op:       r.Op,
				Selected: r.Selected,
				Select:   label(d, r.Selected),
				Truth:    labelTruth(d, r.Exact),
				Query:    r.Query,
				Plan:     r.Plan,
				SPARQL:   sparql.Print(r.Query, d, nil),
			})
		}
	}
	for _, s := range sessions {
		s[len(s)-1].LastStep = true
	}
	return sessions
}

// SPARQLQuery is one one-shot query of the sparql-sharded workload.
type SPARQLQuery struct {
	Kind  string // chart, filter, union or path
	Text  string
	Truth map[string]float64
	Union *query.UnionQuery // set for union queries
}

// sparqlQueries returns the one-shot mix: every FILTER, UNION and path
// query of workload.Surface plus the distinct chart queries of the
// population's paths, each rendered with the repository's printer, in an
// order the seed picks. No two have the same text, so no plan repeats in
// a pass. The paths come back as sessions for the traced run.
func sparqlQueries(ds *Dataset, seed int64) ([]SPARQLQuery, [][]ExploreStep) {
	d := ds.Graph.Dict
	var surface []workload.SurfaceRecord
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := &workload.Generator{Store: ds.Store, Schema: ds.Schema, Seed: populationSeed, MaxSteps: 4}
		surface = gen.Surface(sparqlSurf)
	}()
	halves := populationPaths(ds.Store, ds.Schema, sparqlPaths)
	wg.Wait()

	var out []SPARQLQuery
	seen := map[string]bool{}
	add := func(q SPARQLQuery) {
		if !seen[q.Text] {
			seen[q.Text] = true
			out = append(out, q)
		}
	}
	for _, r := range surface {
		q := SPARQLQuery{Kind: string(r.Kind), Truth: labelTruth(d, r.Exact), Union: r.Union}
		if r.Union != nil {
			q.Text = sparql.PrintUnion(r.Union, d, nil)
		} else {
			q.Text = sparql.Print(r.Query, d, nil)
		}
		add(q)
	}
	for _, recs := range halves {
		for _, r := range recs {
			add(SPARQLQuery{Kind: "chart", Text: sparql.Print(r.Query, d, nil), Truth: labelTruth(d, r.Exact)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, sessionsOf(d, halves)
}

// IngestPlan is the ingest-mixed workload: a base graph with held-out
// triples, the writer's batch cycle, and the reader's chart queries.
type IngestPlan struct {
	Base     *Dataset
	Batches  []Batch // one cycle; the writer repeats it
	Reads    []IngestRead
	Sessions [][]ExploreStep // the exploration paths the reads come from
}

// Batch is one POST /ingest body: adds are applied before deletes.
type Batch struct {
	Add, Del []rdf.Triple
}

// IngestRead is one reader query: a chart query rendered both as the
// DISTINCT chart (answered by the exact merged path) and as its bag
// variant (answered by online Audit Join over the overlay).
type IngestRead struct {
	Exact, Online         *query.Plan
	ExactText, OnlineText string
}

// ingestPlan holds ingestHeld data triples of the fixed population out of
// the base and picks ingestDel other base triples to delete. One writer
// cycle first adds the held-out triples while deleting the picked ones,
// then restores the base by deleting the added triples while adding the
// deleted ones back, so the stream repeats indefinitely and touches delta
// adds, tombstones, add-cancels and resurrections. The seed picks the
// order of the batches.
func ingestPlan(full *Dataset, seed int64) (*IngestPlan, error) {
	sc := full.Schema
	var data []rdf.Triple
	for _, t := range full.Graph.Triples {
		if t.P != sc.Type && t.P != sc.SubClassOf && t.P != sc.TypeClosure {
			data = append(data, t)
		}
	}
	if len(data) < ingestHeld+ingestDel {
		return nil, fmt.Errorf("ingest: only %d data triples", len(data))
	}
	rand.New(rand.NewSource(populationSeed)).Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	held := data[:ingestHeld]
	dels := data[ingestHeld : ingestHeld+ingestDel]
	heldSet := make(map[rdf.Triple]bool, len(held))
	for _, t := range held {
		heldSet[t] = true
	}
	bg := &rdf.Graph{Dict: full.Graph.Dict}
	for _, t := range full.Graph.Triples {
		if !heldSet[t] {
			bg.Triples = append(bg.Triples, t)
		}
	}
	base := &Dataset{Graph: bg, Store: index.Build(bg), Schema: sc}

	var fwd, back []Batch
	for _, i := range rand.New(rand.NewSource(seed)).Perm(ingestHeld / batchAdds) {
		a := held[i*batchAdds : (i+1)*batchAdds]
		r := dels[i*batchDels : (i+1)*batchDels]
		fwd = append(fwd, Batch{Add: a, Del: r})
		back = append(back, Batch{Add: r, Del: a})
	}
	return &IngestPlan{Base: base, Batches: append(fwd, back...)}, nil
}

// exploreReads makes the reader's queries from n exploration paths over
// the base, in an order the seed picks.
func (p *IngestPlan) exploreReads(seed int64, n int) error {
	halves := populationPaths(p.Base.Store, p.Base.Schema, n)
	p.Sessions = sessionsOf(p.Base.Graph.Dict, halves)
	var qs []*query.Query
	for _, recs := range halves {
		for _, r := range recs {
			qs = append(qs, r.Query)
		}
	}
	if err := p.setReads(qs); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.Reads), func(i, j int) { p.Reads[i], p.Reads[j] = p.Reads[j], p.Reads[i] })
	return nil
}

// setReads turns distinct chart queries into reader queries.
func (p *IngestPlan) setReads(qs []*query.Query) error {
	d := p.Base.Graph.Dict
	seen := map[string]bool{}
	p.Reads = nil
	for _, q := range qs {
		text := sparql.Print(q, d, nil)
		if seen[text] {
			continue
		}
		seen[text] = true
		exact, err := query.Compile(q)
		if err != nil {
			return fmt.Errorf("ingest: compile %s: %w", text, err)
		}
		bag := *q
		bag.Distinct = false
		bagPlan, err := query.Compile(&bag)
		if err != nil {
			return fmt.Errorf("ingest: compile bag variant of %s: %w", text, err)
		}
		p.Reads = append(p.Reads, IngestRead{
			Exact: exact, Online: bagPlan,
			ExactText: text, OnlineText: sparql.Print(&bag, d, nil),
		})
	}
	return nil
}

// ntriples renders triples as N-Triples lines for POST /ingest.
func ntriples(d *rdf.Dict, ts []rdf.Triple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = d.Term(t.S).String() + " " + d.Term(t.P).String() + " " + d.Term(t.O).String() + " ."
	}
	return out
}

// stateAfter tracks the live triple set as the writer's batches apply:
// Advance(k) moves it to the state after the first k batches of the
// repeating cycle (k only grows).
type stateAfter struct {
	plan    *IngestPlan
	set     map[rdf.Triple]struct{}
	applied int
}

func newStateAfter(p *IngestPlan) *stateAfter {
	set := make(map[rdf.Triple]struct{}, len(p.Base.Graph.Triples))
	for _, t := range p.Base.Graph.Triples {
		set[t] = struct{}{}
	}
	return &stateAfter{plan: p, set: set}
}

func (s *stateAfter) Advance(k int) {
	for ; s.applied < k; s.applied++ {
		b := s.plan.Batches[s.applied%len(s.plan.Batches)]
		for _, t := range b.Add {
			s.set[t] = struct{}{}
		}
		for _, t := range b.Del {
			delete(s.set, t)
		}
	}
}

// Store indexes the current state for ground-truth evaluation.
func (s *stateAfter) Store() *index.Store {
	g := &rdf.Graph{Dict: s.plan.Base.Graph.Dict, Triples: make([]rdf.Triple, 0, len(s.set))}
	for t := range s.set {
		g.Triples = append(g.Triples, t)
	}
	return index.Build(g)
}
