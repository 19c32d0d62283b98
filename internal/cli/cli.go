// Package cli holds the argument-parsing and data-loading logic shared by
// the command-line tools (cmd/genplan, cmd/joinrun, cmd/joinbench), kept
// here so it can be unit tested. It is also the one place that reads the
// ACYCLICJOIN_* environment (Config.FromEnv); the library never does.
package cli

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"acyclicjoin/internal/cover"
	"acyclicjoin/internal/hypergraph"
)

// RelationSpec is one parsed "Name:attr1,attr2" (optionally "=file") arg.
type RelationSpec struct {
	Name  string
	Attrs []string
	// File is the CSV path when the spec carried "=path" (joinrun form).
	File string
}

// ParseRelationSpec parses "Name:attr1,attr2[,...][=file]". Relation and
// attribute names must not contain the ':', ',' or '=' delimiters.
func ParseRelationSpec(arg string) (*RelationSpec, error) {
	rest := arg
	spec := &RelationSpec{}
	if eq := strings.IndexByte(rest, '='); eq >= 0 {
		if strings.IndexByte(rest, ':') > eq {
			return nil, fmt.Errorf("cli: bad relation spec %q ('=' before ':')", arg)
		}
		spec.File = rest[eq+1:]
		if spec.File == "" {
			return nil, fmt.Errorf("cli: relation spec %q has an empty file path", arg)
		}
		rest = rest[:eq]
	}
	colon := strings.IndexByte(rest, ':')
	if colon <= 0 {
		return nil, fmt.Errorf("cli: bad relation spec %q (want Name:attr1,attr2)", arg)
	}
	spec.Name = rest[:colon]
	for _, a := range strings.Split(rest[colon+1:], ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if strings.ContainsAny(a, ":=,") {
			return nil, fmt.Errorf("cli: attribute %q in %q contains a delimiter", a, arg)
		}
		spec.Attrs = append(spec.Attrs, a)
	}
	if len(spec.Attrs) == 0 {
		return nil, fmt.Errorf("cli: relation %q has no attributes", spec.Name)
	}
	return spec, nil
}

// ParseSizeArg parses "Name=123" size overrides; ok=false when the arg is
// not of that form (e.g. it is a relation spec).
func ParseSizeArg(arg string) (name string, size float64, ok bool, err error) {
	i := strings.IndexByte(arg, '=')
	if i <= 0 || strings.Contains(arg, ":") {
		return "", 0, false, nil
	}
	v, perr := strconv.ParseFloat(arg[i+1:], 64)
	if perr != nil {
		return "", 0, false, fmt.Errorf("cli: bad size %q", arg)
	}
	return arg[:i], v, true, nil
}

// BuildQuery assembles a hypergraph and per-edge sizes from mixed
// relation-spec and size args (the genplan argument format). Attribute names
// are interned in encounter order; unspecified sizes default to defSize.
func BuildQuery(args []string, defSize float64) (*hypergraph.Graph, cover.Sizes, error) {
	attrIDs := map[string]int{}
	var edges []*hypergraph.Edge
	sizeArgs := map[string]float64{}
	for _, a := range args {
		if name, v, ok, err := ParseSizeArg(a); err != nil {
			return nil, nil, err
		} else if ok {
			sizeArgs[name] = v
			continue
		}
		spec, err := ParseRelationSpec(a)
		if err != nil {
			return nil, nil, err
		}
		e := &hypergraph.Edge{ID: len(edges), Name: spec.Name}
		for _, attr := range spec.Attrs {
			id, ok := attrIDs[attr]
			if !ok {
				id = len(attrIDs)
				attrIDs[attr] = id
			}
			e.Attrs = append(e.Attrs, id)
		}
		edges = append(edges, e)
	}
	if len(edges) == 0 {
		return nil, nil, fmt.Errorf("cli: no relations given")
	}
	g, err := hypergraph.New(edges)
	if err != nil {
		return nil, nil, err
	}
	sizes := cover.Sizes{}
	for _, e := range g.Edges() {
		if v, ok := sizeArgs[e.Name]; ok {
			sizes[e.ID] = v
		} else {
			sizes[e.ID] = defSize
		}
	}
	return g, sizes, nil
}

// Value mirrors acyclicjoin.Value without importing the root package.
type Value = interface{}

// ReadCSV streams rows of a CSV with the given arity to add; integers are
// parsed as int64, everything else passes through as strings. When header
// is true the first row is skipped.
func ReadCSV(r io.Reader, arity int, header bool, add func(vals []Value) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = arity
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if first && header {
			first = false
			continue
		}
		first = false
		vals := make([]Value, len(rec))
		for i, s := range rec {
			s = strings.TrimSpace(s)
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				vals[i] = n
			} else {
				vals[i] = s
			}
		}
		if err := add(vals); err != nil {
			return err
		}
	}
}
