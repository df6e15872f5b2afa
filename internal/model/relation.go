package model

// PathRelation describes how an interfering flow τj meets the path Pi of
// an analysed flow τi: the paper's first_{j,i}, last_{j,i}, first_{i,j},
// last_{i,j}, slow_{j,i} notation and the same/reverse direction
// distinction of Figure 1.
type PathRelation struct {
	// Intersects is false when Pi ∩ Pj = ∅, in which case all other
	// fields are meaningless.
	Intersects bool
	// FirstJI is first_{j,i}: the first node of Pi visited by τj,
	// following τj's own traversal order.
	FirstJI NodeID
	// LastJI is last_{j,i}: the last node of Pi visited by τj.
	LastJI NodeID
	// FirstIJ is first_{i,j}: the first node of Pj visited by τi,
	// following τi's traversal order.
	FirstIJ NodeID
	// LastIJ is last_{i,j}: the last node of Pj visited by τi.
	LastIJ NodeID
	// SameDirection reports whether τj crosses Pi in τi's direction.
	// Per the paper's usage, flows are in the same direction exactly
	// when first_{j,i} = first_{i,j} (this also holds when the flows
	// share a single node). The Σ max terms of Lemma 2 and the M^h_i
	// accumulation only range over same-direction flows.
	SameDirection bool
	// SlowJI is slow_{j,i}: a node of Pi ∩ Pj on which τj's processing
	// time is maximal, and CSlowJI that maximal time C^{slow_{j,i}}_j.
	SlowJI  NodeID
	CSlowJI Time
	// Shared lists the nodes of Pi ∩ Pj in τj's traversal order.
	Shared []NodeID
}

// Relate computes the relation of interferer flow j against the path of
// flow i. It is symmetric in structure but not in content:
// Relate(i, j) and Relate(j, i) answer different questions.
func Relate(fi, fj *Flow) PathRelation {
	return RelateToPath(fi.Path, fj)
}

// RelateToPath computes the relation of flow j against an arbitrary
// path pi (used both for whole flows and for prefix-path analyses).
func RelateToPath(pi Path, fj *Flow) PathRelation {
	var r PathRelation
	for _, h := range fj.Path {
		if pi.Contains(h) {
			r.Shared = append(r.Shared, h)
		}
	}
	if len(r.Shared) == 0 {
		return r
	}
	r.Intersects = true
	r.FirstJI = r.Shared[0]
	r.LastJI = r.Shared[len(r.Shared)-1]

	// first_{i,j} / last_{i,j}: scan pi in its own order for nodes of Pj.
	for _, h := range pi {
		if fj.Path.Contains(h) {
			r.FirstIJ = h
			break
		}
	}
	for k := len(pi) - 1; k >= 0; k-- {
		if fj.Path.Contains(pi[k]) {
			r.LastIJ = pi[k]
			break
		}
	}
	r.SameDirection = r.FirstJI == r.FirstIJ

	// slow_{j,i}: maximize C^h_j over the shared nodes.
	r.SlowJI = r.Shared[0]
	r.CSlowJI = fj.CostAt(r.SlowJI)
	for _, h := range r.Shared[1:] {
		if c := fj.CostAt(h); c > r.CSlowJI {
			r.SlowJI, r.CSlowJI = h, c
		}
	}
	return r
}
