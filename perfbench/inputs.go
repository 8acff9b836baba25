package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"ping/internal/engine"
	"ping/internal/gmark"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// benchQuery is one generated query with its oracle answer.
type benchQuery struct {
	Shape string
	Text  string
	Q     *sparql.Query
	// Oracle is the graphIndex answer on the base graph.
	Oracle answerSet
	// OracleUpdated is the oracle on base+batch (serve-churn only).
	OracleUpdated answerSet
}

// oracle is the query's answer on the base graph, or on base+batch.
func (q *benchQuery) oracle(updated bool) answerSet {
	if updated {
		return q.OracleUpdated
	}
	return q.Oracle
}

// inputs is everything one workload run is given: the generated graph,
// the query list and the update batch. All of it is a function of the
// workload and the seed.
type inputs struct {
	Dataset *gmark.Dataset
	Queries []*benchQuery
	// Batch is the fixed update batch: triples absent from the base
	// graph. BatchNT is the same batch as N-Triples.
	Batch   []rdf.Triple
	BatchNT string
	Digest  string
}

// queryGen draws star, chain and complex queries from a schema. Unlike
// gmark.(*Dataset).GenerateWorkload, which ranges over Go maps to pick
// classes (so one seed yields a different query set in every process),
// it walks the schema's class slice in declaration order, so one seed
// always yields one query set.
//
// Every candidate query is a template instantiated with constants: rng
// draws its structure (properties and hops) and is reseeded from the
// candidate's position alone, so all seeds share one set of templates;
// crng draws the constants and is reseeded from the position and the
// seed. A seed thus changes the graph and the constants, not the mix of
// query structures, which keeps the workload comparable across seeds.
type queryGen struct {
	d    *gmark.Dataset
	seed int64
	rng  *rand.Rand
	crng *rand.Rand
	// props and targets are indexed like d.Schema.Classes: every property
	// of the class, and the ones whose objects are instances of a class.
	props   [][]gmark.Property
	targets [][]gmark.Property
	// samples holds up to maxSamples objects per property IRI, in graph
	// order, for constant-object star patterns.
	samples map[string][]rdf.Term
}

const maxSamples = 40

func newQueryGen(d *gmark.Dataset, seed int64) *queryGen {
	g := &queryGen{d: d, seed: seed, rng: rand.New(rand.NewSource(0)), crng: rand.New(rand.NewSource(0)), samples: make(map[string][]rdf.Term)}
	for _, c := range d.Schema.Classes {
		props := append(append([]gmark.Property(nil), c.Required...), c.Chain...)
		var targets []gmark.Property
		for _, p := range props {
			if p.Target.Class != "" {
				targets = append(targets, p)
			}
		}
		g.props = append(g.props, props)
		g.targets = append(g.targets, targets)
	}
	for _, t := range d.Graph.Triples {
		piri := d.Graph.Dict.Term(t.P).Value
		if len(g.samples[piri]) < maxSamples {
			g.samples[piri] = append(g.samples[piri], d.Graph.Dict.Term(t.O))
		}
	}
	return g
}

func (g *queryGen) classIndex(name string) int {
	for i, c := range g.d.Schema.Classes {
		if c.Name == name {
			return i
		}
	}
	return -1
}

func (g *queryGen) iri(p gmark.Property) string { return g.d.Schema.PropertyIRI(p.Name) }

// reseed positions both generators at one candidate: attempt a of the
// i-th slot visit of shape sh.
func (g *queryGen) reseed(sh, i, a int) {
	pos := int64(sh)<<40 | int64(i)<<16 | int64(a)
	g.rng.Seed(pos)
	g.crng.Seed(pos ^ g.seed*0x5851f42d4c957f2d)
}

// pick samples k distinct properties of props.
func (g *queryGen) pick(props []gmark.Property, k int) []gmark.Property {
	idx := g.rng.Perm(len(props))
	k = min(k, len(props))
	out := make([]gmark.Property, k)
	for i := range out {
		out[i] = props[idx[i]]
	}
	return out
}

// star builds k patterns on one subject of class c; each object is a
// constant with probability constProb.
func (g *queryGen) star(c, k int, constProb float64) string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE {\n")
	for i, p := range g.pick(g.props[c], k) {
		obj := fmt.Sprintf("?o%d", i)
		if g.rng.Float64() < constProb {
			if s := g.samples[g.iri(p)]; len(s) > 0 {
				obj = s[g.crng.Intn(len(s))].String()
			}
		}
		fmt.Fprintf(&b, "  ?x <%s> %s .\n", g.iri(p), obj)
	}
	b.WriteString("}")
	return b.String()
}

// walk appends n chain hops starting at class c, the last hop on any
// property of the class it reaches.
func (g *queryGen) walk(b *strings.Builder, c, n int, v string) bool {
	for i := 0; i < n; i++ {
		var p gmark.Property
		if i == n-1 || len(g.targets[c]) == 0 {
			p = g.props[c][g.rng.Intn(len(g.props[c]))]
		} else {
			p = g.targets[c][g.rng.Intn(len(g.targets[c]))]
		}
		fmt.Fprintf(b, "  ?%s%d <%s> ?%s%d .\n", v, i, g.iri(p), v, i+1)
		if i < n-1 {
			if c = g.classIndex(p.Target.Class); c < 0 {
				return false
			}
		}
	}
	return true
}

// chain builds a path of k hops from class c over class-targeting
// properties.
func (g *queryGen) chain(c, k int) string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE {\n")
	if !g.walk(&b, c, k, "v") {
		return ""
	}
	b.WriteString("}")
	return b.String()
}

// complex builds a star of at least two patterns on class c with a chain
// hanging off one of its objects, k patterns in all.
func (g *queryGen) complex(c, k int) string {
	k = max(k, 2)
	starK := 2
	if k > 3 {
		starK = 2 + g.rng.Intn(k-2)
	}
	bridge := g.targets[c][g.rng.Intn(len(g.targets[c]))]
	var b strings.Builder
	b.WriteString("SELECT * WHERE {\n")
	fmt.Fprintf(&b, "  ?x <%s> ?v0 .\n", g.iri(bridge))
	for i, p := range g.pick(g.props[c], starK-1) {
		fmt.Fprintf(&b, "  ?x <%s> ?s%d .\n", g.iri(p), i)
	}
	if n := k - starK; n > 0 && !g.walk(&b, g.classIndex(bridge.Target.Class), n, "v") {
		return ""
	}
	b.WriteString("}")
	return b.String()
}

// slot is one (class, pattern count) combination of a shape.
type slot struct{ class, k int }

// slots lists a shape's combinations in a fixed order: sizes lo..hi, and
// for each size the classes (in schema order) the shape can start from.
func (g *queryGen) slots(lo, hi int, ok func(c, k int) bool) []slot {
	var out []slot
	for k := lo; k <= hi; k++ {
		for c := range g.props {
			if ok(c, k) {
				out = append(out, slot{c, k})
			}
		}
	}
	return out
}

// genQueries draws perShape queries of each shape, keeping only queries
// whose exact answer has between 1 and maxAnswers rows. Each shape visits
// its slots round-robin, so every seed yields the same mix of shapes,
// sizes and classes; the seed picks properties, constants and hops. The
// engine screens candidates cheaply; the graphIndex oracle then gives the
// answer of every kept query.
func genQueries(d *gmark.Dataset, dataset string, perShape, maxAnswers int, seed int64) ([]*benchQuery, error) {
	cfg := gmark.StandardWorkloadConfig(dataset, perShape)
	g := newQueryGen(d, seed)
	hasTargets := func(c, _ int) bool { return len(g.targets[c]) > 0 }
	shapes := []struct {
		name  string
		n     int
		slots []slot
		gen   func(slot) string
	}{
		{"star", cfg.Star, g.slots(cfg.StarMin, cfg.StarMax, func(c, k int) bool { return len(g.props[c]) >= k }),
			func(s slot) string { return g.star(s.class, s.k, cfg.ConstantProb) }},
		{"chain", cfg.Chain, g.slots(cfg.ChainMin, cfg.ChainMax, hasTargets),
			func(s slot) string { return g.chain(s.class, s.k) }},
		{"complex", cfg.Complex, g.slots(cfg.ComplexMin, cfg.ComplexMax, hasTargets),
			func(s slot) string { return g.complex(s.class, s.k) }},
	}
	var out []*benchQuery
	seen := make(map[string]bool)
	for si, sh := range shapes {
		kept := 0
		for i := 0; kept < sh.n && i < 4*sh.n*max(len(sh.slots), 1); i++ {
			s := sh.slots[i%len(sh.slots)]
			for attempt := 0; attempt < 50; attempt++ {
				g.reseed(si, i, attempt)
				text := sh.gen(s)
				if text == "" || seen[text] {
					continue
				}
				seen[text] = true
				q, err := sparql.Parse(text)
				if err != nil {
					return nil, fmt.Errorf("generated query does not parse: %w", err)
				}
				rel, _, err := engine.Evaluate(q, engine.InputsFromGraph(d.Graph, q), d.Graph.Dict, engine.Options{})
				if err != nil || rel.Card() == 0 || rel.Card() > maxAnswers {
					continue
				}
				out = append(out, &benchQuery{Shape: sh.name, Text: text, Q: q})
				kept++
				break
			}
		}
		if kept < sh.n {
			return nil, fmt.Errorf("%s: only %d of %d %s queries found", dataset, kept, sh.n, sh.name)
		}
	}
	idx := newGraphIndex(d.Graph)
	for _, bq := range out {
		bq.Oracle = idx.answer(bq.Q)
		if bq.Oracle.Len() == 0 {
			return nil, fmt.Errorf("oracle finds no answer for a screened query:\n%s", bq.Text)
		}
	}
	return out, nil
}

// genBatch draws n triples absent from the graph: subjects are existing
// instances (classes in declaration order), properties come from the
// subject's class, objects are instances of the property's target class
// or fresh IRIs. Adding the batch moves subjects between characteristic
// sets, so an update rewrites sub-partitions as real edits do.
func genBatch(d *gmark.Dataset, n int, seed int64) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	g := d.Graph
	have := make(map[rdf.Triple]bool, g.Len())
	for _, t := range g.Triples {
		have[t] = true
	}
	var out []rdf.Triple
	for i := 0; len(out) < n; i++ {
		c := d.Schema.Classes[rng.Intn(len(d.Schema.Classes))]
		insts := d.InstancesByClass[c.Name]
		props := append(append([]gmark.Property(nil), c.Required...), c.Chain...)
		p := props[rng.Intn(len(props))]
		s := rdf.NewIRI(insts[rng.Intn(len(insts))])
		o := rdf.NewIRI(d.Schema.IRI(fmt.Sprintf("edit%d_%d", seed, i)))
		if p.Target.Class != "" {
			objs := d.InstancesByClass[p.Target.Class]
			o = rdf.NewIRI(objs[rng.Intn(len(objs))])
		}
		t := rdf.Triple{S: g.Dict.Encode(s), P: g.Dict.EncodeIRI(d.Schema.PropertyIRI(p.Name)), O: g.Dict.Encode(o)}
		if have[t] {
			continue
		}
		have[t] = true
		out = append(out, t)
	}
	return out
}

// ntriples renders triples as an N-Triples document.
func ntriples(dict *rdf.Dict, ts []rdf.Triple) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%s %s %s .\n", dict.Term(t.S), dict.Term(t.P), dict.Term(t.O))
	}
	return b.String()
}

// digestInputs hashes the graph (sorted triples as terms), the query
// texts and the update batch: equal digests mean equal inputs.
func digestInputs(g *rdf.Graph, qs []*benchQuery, batchNT string) string {
	h := sha256.New()
	lines := make([]string, 0, g.Len())
	for _, t := range g.Triples {
		lines = append(lines, fmt.Sprintf("%s %s %s", g.Dict.Term(t.S), g.Dict.Term(t.P), g.Dict.Term(t.O)))
	}
	sort.Strings(lines)
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	for _, q := range qs {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(q.Text)))
		h.Write(n[:])
		io.WriteString(h, q.Shape)
		io.WriteString(h, q.Text)
	}
	io.WriteString(h, batchNT)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// makeInputs generates a workload's graph, queries and update batch from
// the seed, with the oracle answer of every query.
func makeInputs(sp spec, seed int64) (*inputs, error) {
	ds := gmark.DatasetByName(sp.dataset)
	if ds == nil {
		return nil, fmt.Errorf("unknown dataset %q", sp.dataset)
	}
	d := ds.Schema.Generate(sp.scale, seed)
	qs, err := genQueries(d, sp.dataset, sp.perShape, sp.maxAnswers, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{Dataset: d, Queries: qs, Batch: genBatch(d, batchSize, seed)}
	in.BatchNT = ntriples(d.Graph.Dict, in.Batch)
	if sp.serve {
		upd := d.Graph.Clone()
		upd.Triples = append(upd.Triples, in.Batch...)
		idx := newGraphIndex(upd)
		for _, q := range qs {
			q.OracleUpdated = idx.answer(q.Q)
		}
	}
	in.Digest = digestInputs(d.Graph, qs, in.BatchNT)
	return in, nil
}

// batchSize is the number of triples of the update batch.
const batchSize = 100
