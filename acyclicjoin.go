// Package acyclicjoin is a worst-case I/O-optimal join library for
// Berge-acyclic queries, reproducing Hu & Yi, "Towards a Worst-Case
// I/O-Optimal Algorithm for Acyclic Joins" (PODS 2016).
//
// Joins run on a simulated external-memory machine (memory of M tuples,
// blocks of B tuples) that counts block I/Os exactly, so the library doubles
// as a measurement harness for the paper's bounds. Results are delivered
// through an emit callback and never written to disk — the paper's "emit
// model".
//
// Basic usage:
//
//	q, _ := acyclicjoin.NewQuery().
//	    Relation("R1", "A", "B").
//	    Relation("R2", "B", "C").
//	    Build()
//	inst := q.NewInstance()
//	inst.Add("R1", 1, 10)
//	inst.Add("R2", 10, 100)
//	res, _ := acyclicjoin.Run(q, inst, acyclicjoin.Options{Memory: 1024, Block: 64},
//	    func(row acyclicjoin.Row) { fmt.Println(row) })
//	fmt.Println(res.Stats.IOs)
//
// String values are dictionary-encoded transparently. Each attribute holds
// one kind of value, integers or strings, fixed by its first Add; Explain
// reports edge
// covers, the AGM bound, and the paper's GenS-based cost bound for a query.
package acyclicjoin

import (
	"fmt"
	"sort"

	"acyclicjoin/internal/hypergraph"
	"acyclicjoin/internal/tuple"
)

// Value is a column value: an integer (int, int64, int32 or uint32) or a
// string (dictionary-encoded internally).
type Value interface{}

// Row is one join result keyed by attribute name.
type Row map[string]Value

// QueryBuilder accumulates relations before Build validates the query.
type QueryBuilder struct {
	relNames  []string
	relAttrs  [][]string
	attrIDs   map[string]int
	attrNames []string
	err       error
}

// NewQuery starts a query definition.
func NewQuery() *QueryBuilder {
	return &QueryBuilder{attrIDs: map[string]int{}}
}

// Relation adds a relation with the given name and attribute names.
// Attributes shared between relations (same name) are join attributes.
func (b *QueryBuilder) Relation(name string, attrs ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	if name == "" {
		b.err = fmt.Errorf("acyclicjoin: relation name must be non-empty")
		return b
	}
	for _, r := range b.relNames {
		if r == name {
			b.err = fmt.Errorf("acyclicjoin: duplicate relation name %q", name)
			return b
		}
	}
	if len(attrs) == 0 {
		b.err = fmt.Errorf("acyclicjoin: relation %q needs at least one attribute", name)
		return b
	}
	for _, a := range attrs {
		if _, ok := b.attrIDs[a]; !ok {
			b.attrIDs[a] = len(b.attrNames)
			b.attrNames = append(b.attrNames, a)
		}
	}
	b.relNames = append(b.relNames, name)
	b.relAttrs = append(b.relAttrs, attrs)
	return b
}

// Build validates the query (Berge-acyclicity included) and freezes it.
func (b *QueryBuilder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.relNames) == 0 {
		return nil, fmt.Errorf("acyclicjoin: query has no relations")
	}
	edges := make([]*hypergraph.Edge, len(b.relNames))
	for i, name := range b.relNames {
		e := &hypergraph.Edge{ID: i, Name: name}
		for _, a := range b.relAttrs[i] {
			e.Attrs = append(e.Attrs, b.attrIDs[a])
		}
		edges[i] = e
	}
	g, err := hypergraph.New(edges)
	if err != nil {
		return nil, fmt.Errorf("acyclicjoin: %w", err)
	}
	if !g.IsBergeAcyclic() {
		return nil, fmt.Errorf("acyclicjoin: query is not Berge-acyclic; see the package documentation for the acyclicity notion used (two relations may share at most one attribute, and the incidence graph must be a forest)")
	}
	q := &Query{
		graph:     g,
		relIndex:  map[string]int{},
		attrIDs:   map[string]int{},
		attrNames: append([]string{}, b.attrNames...),
		relAttrs:  make([][]string, len(b.relAttrs)),
		relSchema: make([]tuple.Schema, len(b.relAttrs)),
	}
	for i, name := range b.relNames {
		q.relIndex[name] = i
		q.relAttrs[i] = append([]string{}, b.relAttrs[i]...)
		for _, a := range b.relAttrs[i] {
			q.relSchema[i] = append(q.relSchema[i], b.attrIDs[a])
		}
	}
	for a, id := range b.attrIDs {
		q.attrIDs[a] = id
	}
	return q, nil
}

// Query is a validated Berge-acyclic join query.
type Query struct {
	graph    *hypergraph.Graph
	relIndex map[string]int
	relAttrs [][]string
	// relSchema[i] holds the attribute IDs of relation i, in order.
	relSchema []tuple.Schema
	attrIDs   map[string]int
	attrNames []string
}

// Relations returns the relation names in declaration order.
func (q *Query) Relations() []string {
	out := make([]string, len(q.relAttrs))
	for name, i := range q.relIndex {
		out[i] = name
	}
	return out
}

// Attributes returns all attribute names, sorted.
func (q *Query) Attributes() []string {
	out := append([]string{}, q.attrNames...)
	sort.Strings(out)
	return out
}

// AttributesOf returns the attribute names of one relation, in declaration
// order, or nil if the relation does not exist.
func (q *Query) AttributesOf(relation string) []string {
	i, ok := q.relIndex[relation]
	if !ok {
		return nil
	}
	return append([]string{}, q.relAttrs[i]...)
}

// IsLine reports whether the query is a line join (Section 6).
func (q *Query) IsLine() bool {
	_, ok := q.graph.AsLine()
	return ok
}

// IsStar reports whether the query is a standalone star join (Section 5).
func (q *Query) IsStar() bool {
	_, ok := q.graph.AsStandaloneStar()
	return ok
}

// Instance collects the tuples of each relation prior to a Run. Rows are
// deduplicated (the join uses set semantics).
type Instance struct {
	q    *Query
	rows [][]tuple.Tuple
	seen []map[string]bool
	dict *dictionary
	// kinds[id] is what attribute id holds, fixed by its first Add.
	kinds []valueKind
}

// valueKind is the kind of value an attribute holds.
type valueKind uint8

const (
	kindNone valueKind = iota // no value added yet
	kindInt
	kindString
)

func (k valueKind) String() string {
	if k == kindString {
		return "strings"
	}
	return "integers"
}

// NewInstance creates an empty instance of the query.
func (q *Query) NewInstance() *Instance {
	in := &Instance{
		q:     q,
		rows:  make([][]tuple.Tuple, len(q.relAttrs)),
		seen:  make([]map[string]bool, len(q.relAttrs)),
		dict:  newDictionary(),
		kinds: make([]valueKind, len(q.attrNames)),
	}
	for i := range in.seen {
		in.seen[i] = map[string]bool{}
	}
	return in
}

// Add appends one tuple to the named relation, with values given in the
// relation's declared attribute order. Values may be integers (int, int64,
// int32, uint32) or strings, but an attribute's first value fixes its kind:
// a later value of the other kind is rejected, in any relation. The integer
// -1<<62 is reserved and rejected. A rejected tuple leaves the instance
// unchanged. Duplicate tuples are ignored.
func (in *Instance) Add(relationName string, values ...Value) error {
	i, ok := in.q.relIndex[relationName]
	if !ok {
		return fmt.Errorf("acyclicjoin: unknown relation %q", relationName)
	}
	attrs, schema := in.q.relAttrs[i], in.q.relSchema[i]
	if len(values) != len(attrs) {
		return fmt.Errorf("acyclicjoin: relation %q expects %d values, got %d",
			relationName, len(attrs), len(values))
	}
	for j, v := range values {
		kind := kindString
		if n, ok := intValue(v); ok {
			kind = kindInt
			if n == tuple.Unset {
				return fmt.Errorf("acyclicjoin: relation %q column %q: integer %d is reserved",
					relationName, attrs[j], n)
			}
		} else if _, ok := v.(string); !ok {
			return fmt.Errorf("acyclicjoin: relation %q column %q: unsupported value type %T",
				relationName, attrs[j], v)
		}
		if have := in.kinds[schema[j]]; have != kindNone && have != kind {
			return fmt.Errorf("acyclicjoin: relation %q column %q: value %#v in an attribute that holds %s",
				relationName, attrs[j], v, have)
		}
	}
	t := make(tuple.Tuple, len(values))
	for j, v := range values {
		if n, ok := intValue(v); ok {
			t[j] = n
			in.kinds[schema[j]] = kindInt
		} else {
			t[j] = in.dict.encode(v.(string))
			in.kinds[schema[j]] = kindString
		}
	}
	k := keyOf(t)
	if in.seen[i][k] {
		return nil
	}
	in.seen[i][k] = true
	in.rows[i] = append(in.rows[i], t)
	return nil
}

// MustAdd is Add but panics on error; for static examples and tests.
func (in *Instance) MustAdd(relationName string, values ...Value) {
	if err := in.Add(relationName, values...); err != nil {
		panic(err)
	}
}

// Size returns the current number of (distinct) tuples in a relation.
func (in *Instance) Size(relationName string) int {
	if i, ok := in.q.relIndex[relationName]; ok {
		return len(in.rows[i])
	}
	return 0
}

func keyOf(t tuple.Tuple) string {
	b := make([]byte, 0, len(t)*8)
	for _, v := range t {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v>>s))
		}
	}
	return string(b)
}

// intValue converts the supported integer types to int64.
func intValue(v Value) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int64:
		return x, true
	case int32:
		return int64(x), true
	case uint32:
		return int64(x), true
	}
	return 0, false
}

// decode turns the encoded value x of attribute id back into a Value, by the
// attribute's kind: the dictionary's string codes are negative and can equal
// an integer another attribute holds, so the value alone cannot tell.
func (in *Instance) decode(id int, x int64) Value {
	if in.kinds[id] == kindString {
		return in.dict.byStr[-2-x]
	}
	return x
}

// dictionary encodes strings as the negative integers -2, -3, .... Codes
// only ever meet other codes: an attribute holds strings or integers, never
// both.
type dictionary struct {
	byStr []string
	ids   map[string]int64
}

func newDictionary() *dictionary {
	return &dictionary{ids: map[string]int64{}}
}

func (d *dictionary) encode(x string) int64 {
	if id, ok := d.ids[x]; ok {
		return id
	}
	id := int64(-2 - len(d.byStr))
	d.ids[x] = id
	d.byStr = append(d.byStr, x)
	return id
}
