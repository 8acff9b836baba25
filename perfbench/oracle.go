package main

import (
	"fmt"
	"slices"
	"sort"

	"ping/internal/engine"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// graphIndex is the oracle: a hash-join evaluator over the generated
// graph that shares no code with the engine. engine.Naive is the
// repository's reference evaluator, but it rescans a property's whole
// extent for every partial binding, which takes minutes per query on
// graphs of this size; the benchmark's own test checks that the two
// agree on every generated query of a small graph.
type graphIndex struct {
	dict   *rdf.Dict
	byProp map[rdf.ID][]rdf.SOPair
}

func newGraphIndex(g *rdf.Graph) *graphIndex {
	idx := &graphIndex{dict: g.Dict, byProp: make(map[rdf.ID][]rdf.SOPair)}
	for _, t := range g.Triples {
		idx.byProp[t.P] = append(idx.byProp[t.P], rdf.SOPair{S: t.S, O: t.O})
	}
	return idx
}

// bindings is a bag of rows over vars.
type bindings struct {
	vars []string
	rows [][]rdf.ID
}

func (b *bindings) col(v string) int {
	for i, x := range b.vars {
		if x == v {
			return i
		}
	}
	return -1
}

// match returns the bindings of one pattern with a constant predicate.
func (idx *graphIndex) match(p sparql.TriplePattern) *bindings {
	out := &bindings{}
	pid := idx.dict.Lookup(p.P)
	if pid == rdf.NoID {
		return out
	}
	term := func(t rdf.Term) (rdf.ID, bool) {
		if t.IsVar() {
			return 0, false
		}
		return idx.dict.Lookup(t), true
	}
	sid, sConst := term(p.S)
	oid, oConst := term(p.O)
	same := p.S.IsVar() && p.O.IsVar() && p.S.Value == p.O.Value
	if p.S.IsVar() {
		out.vars = append(out.vars, p.S.Value)
	}
	if p.O.IsVar() && !same {
		out.vars = append(out.vars, p.O.Value)
	}
	for _, pr := range idx.byProp[pid] {
		if (sConst && pr.S != sid) || (oConst && pr.O != oid) || (same && pr.S != pr.O) {
			continue
		}
		row := make([]rdf.ID, 0, 2)
		if p.S.IsVar() {
			row = append(row, pr.S)
		}
		if p.O.IsVar() && !same {
			row = append(row, pr.O)
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// join hash-joins a and b on their shared variables (a cross product
// when they share none).
func join(a, b *bindings) *bindings {
	var shared [][2]int
	out := &bindings{vars: append([]string(nil), a.vars...)}
	var bExtra []int
	for j, v := range b.vars {
		if i := a.col(v); i >= 0 {
			shared = append(shared, [2]int{i, j})
		} else {
			out.vars = append(out.vars, v)
			bExtra = append(bExtra, j)
		}
	}
	key := func(row []rdf.ID, side int) string {
		k := make([]byte, 0, 4*len(shared))
		for _, s := range shared {
			id := row[s[side]]
			k = append(k, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(k)
	}
	table := make(map[string][][]rdf.ID)
	for _, row := range b.rows {
		k := key(row, 1)
		table[k] = append(table[k], row)
	}
	for _, ra := range a.rows {
		for _, rb := range table[key(ra, 0)] {
			row := append(append(make([]rdf.ID, 0, len(out.vars)), ra...), make([]rdf.ID, len(bExtra))...)
			for n, j := range bExtra {
				row[len(ra)+n] = rb[j]
			}
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// answer evaluates q (triple patterns with constant predicates): it
// starts from the smallest pattern and keeps joining the smallest
// pattern that shares a variable with what is bound so far.
func (idx *graphIndex) answer(q *sparql.Query) answerSet {
	left := make([]*bindings, len(q.Patterns))
	for i, p := range q.Patterns {
		left[i] = idx.match(p)
	}
	var cur *bindings
	for len(left) > 0 {
		best := -1
		for i, b := range left {
			connected := cur == nil
			for _, v := range b.vars {
				connected = connected || cur.col(v) >= 0
			}
			if connected && (best < 0 || len(b.rows) < len(left[best].rows)) {
				best = i
			}
		}
		if best < 0 {
			best = 0
		}
		if cur == nil {
			cur = left[best]
		} else {
			cur = join(cur, left[best])
		}
		left = append(left[:best], left[best+1:]...)
	}
	rel := &engine.Relation{Vars: cur.vars, Rows: cur.rows}
	if proj := q.Projection(); len(proj) > 0 {
		if p, err := rel.Project(proj); err == nil {
			rel = p
		}
	}
	return canonical(rel)
}

// answerSet is a relation reduced to the sorted, distinct 64-bit hashes
// of its rows, with columns taken in variable-name order so relations
// with permuted columns compare equal.
type answerSet []uint64

func (a answerSet) Len() int { return len(a) }

// canonical hashes every row of r into an answerSet.
func canonical(r *engine.Relation) answerSet {
	if r == nil {
		return nil
	}
	order := make([]int, len(r.Vars))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return r.Vars[order[i]] < r.Vars[order[j]] })
	out := make(answerSet, 0, len(r.Rows))
	for _, row := range r.Rows {
		h := uint64(14695981039346656037)
		for _, c := range order {
			h ^= uint64(row[c]) + 0x9e3779b97f4a7c15
			h *= 1099511628211
			h ^= h >> 29
		}
		out = append(out, h)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// subsetOf reports whether every element of a is in b.
func (a answerSet) subsetOf(b answerSet) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

func (a answerSet) equal(b answerSet) bool { return slices.Equal(a, b) }

// checkLineage verifies one progressive run against the paper's
// guarantees: step answer sets never shrink, every step is a subset of
// the final answer (Lemma 4.3), and the final answer equals both the
// one-shot exact answer and the oracle (Thm 4.5). eqa may be nil when
// the run has no one-shot counterpart.
func checkLineage(steps []*engine.Relation, eqa *engine.Relation, oracle answerSet) error {
	if len(steps) == 0 {
		return fmt.Errorf("no steps delivered")
	}
	final := canonical(steps[len(steps)-1])
	var prev answerSet
	for i, s := range steps {
		cur := canonical(s)
		if !prev.subsetOf(cur) {
			return fmt.Errorf("step %d: answer set shrank (%d -> %d rows)", i+1, prev.Len(), cur.Len())
		}
		if !cur.subsetOf(final) {
			return fmt.Errorf("step %d: answers are not a subset of the final answers", i+1)
		}
		prev = cur
	}
	if !final.equal(oracle) {
		return fmt.Errorf("final answers (%d rows) differ from the oracle (%d rows)", final.Len(), oracle.Len())
	}
	if eqa != nil {
		if e := canonical(eqa); !e.equal(oracle) {
			return fmt.Errorf("EQA answers (%d rows) differ from the oracle (%d rows)", e.Len(), oracle.Len())
		}
	}
	return nil
}
