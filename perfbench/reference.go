package main

import "fmt"

// refResult is what an independent evaluation of a workload expects from Run.
type refResult struct {
	count int64
	// checksum is the order-independent row checksum (see rowHash); only
	// computed for workloads whose sink reads the rows.
	checksum uint64
}

// joinTree orders a workload's relations so that every relation after the
// first shares an attribute with one placed before it: parent[i] is that
// relation and link[i] the shared attribute name.
type joinTree struct {
	order  []int
	parent []int
	link   []string
}

func buildJoinTree(rels []relSpec) (*joinTree, error) {
	t := &joinTree{order: []int{0}, parent: make([]int, len(rels)), link: make([]string, len(rels))}
	t.parent[0] = -1
	placed := map[int]bool{0: true}
	for len(t.order) < len(rels) {
		progress := false
		for i := range rels {
			if placed[i] {
				continue
			}
			for _, p := range t.order {
				if a := sharedAttr(rels[i], rels[p]); a != "" {
					t.parent[i], t.link[i] = p, a
					t.order = append(t.order, i)
					placed[i] = true
					progress = true
					break
				}
			}
		}
		if !progress {
			return nil, fmt.Errorf("reference: query is not connected")
		}
	}
	return t, nil
}

func sharedAttr(r, s relSpec) string {
	for _, a := range r.attrs {
		for _, b := range s.attrs {
			if a == b {
				return a
			}
		}
	}
	return ""
}

func col(r relSpec, attr string) int {
	for j, a := range r.attrs {
		if a == attr {
			return j
		}
	}
	return -1
}

// reference evaluates the workload's join over the generated tuples with
// in-memory hash joins, sharing no code with the library. The count comes
// from a bottom-up counting pass over the join tree; the checksum, when
// asked for, from enumerating every row.
func reference(w *workload, data [][][]int64, withChecksum bool) (refResult, error) {
	t, err := buildJoinTree(w.rels)
	if err != nil {
		return refResult{}, err
	}
	// weight[i][k] is the number of join results of relation i's subtree
	// that extend tuple k of relation i.
	weight := make([][]int64, len(w.rels))
	// agg[i] sums relation i's weights by the value of its link attribute.
	agg := make([]map[int64]int64, len(w.rels))
	for o := len(t.order) - 1; o >= 0; o-- {
		i := t.order[o]
		weight[i] = make([]int64, len(data[i]))
		for k := range weight[i] {
			weight[i][k] = 1
		}
		for _, c := range t.order {
			if t.parent[c] != i {
				continue
			}
			pc := col(w.rels[i], t.link[c])
			for k, tup := range data[i] {
				weight[i][k] *= agg[c][tup[pc]]
			}
		}
		if i != t.order[0] {
			ci := col(w.rels[i], t.link[i])
			agg[i] = map[int64]int64{}
			for k, tup := range data[i] {
				agg[i][tup[ci]] += weight[i][k]
			}
		}
	}
	var res refResult
	for _, wt := range weight[t.order[0]] {
		res.count += wt
	}
	if withChecksum {
		res.checksum = enumerateChecksum(w, data, t)
	}
	return res, nil
}

// enumerateChecksum enumerates every join row by nested index lookups along
// the join tree and sums their hashes.
func enumerateChecksum(w *workload, data [][][]int64, t *joinTree) uint64 {
	names := w.attrNames()
	pos := map[string]int{}
	for i, a := range names {
		pos[a] = i
	}
	// index[i] groups relation i's tuples by its link attribute.
	index := make([]map[int64][][]int64, len(w.rels))
	for _, i := range t.order[1:] {
		ci := col(w.rels[i], t.link[i])
		index[i] = map[int64][][]int64{}
		for _, tup := range data[i] {
			index[i][tup[ci]] = append(index[i][tup[ci]], tup)
		}
	}
	row := make([]int64, len(names))
	bound := make([]bool, len(names))
	var sum uint64
	var bind func(o int)
	try := func(o int, tup []int64) {
		r := w.rels[t.order[o]]
		var fresh []int
		ok := true
		for j, a := range r.attrs {
			p := pos[a]
			if bound[p] {
				ok = ok && row[p] == tup[j]
				continue
			}
			row[p], bound[p] = tup[j], true
			fresh = append(fresh, p)
		}
		if ok {
			bind(o + 1)
		}
		for _, p := range fresh {
			bound[p] = false
		}
	}
	bind = func(o int) {
		if o == len(t.order) {
			sum += rowHash(row)
			return
		}
		i := t.order[o]
		if o == 0 {
			for _, tup := range data[i] {
				try(o, tup)
			}
			return
		}
		for _, tup := range index[i][row[pos[t.link[i]]]] {
			try(o, tup)
		}
	}
	bind(0)
	return sum
}

// rowHash hashes one row's values, given in sorted attribute-name order. The
// checksum of a result is the wrapping sum of its rows' hashes, so it does not
// depend on emission order but does count duplicates.
func rowHash(vals []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
