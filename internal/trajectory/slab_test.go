package trajectory

import (
	"slices"
	"testing"

	"trajan/internal/model"
)

// denseRel is the dense counterpart of model.PathRelation for a prefix
// view, reporting the anchors as path POSITIONS instead of node ids —
// the coordinates buildViews stores in a view's columns. Field by field
// it mirrors FlowSet.PrefixRelation:
//
//	firstJIonI/firstJIonJ — position of first_{j,i} on Pi / on Pj
//	firstIJonI/firstIJonJ — position of first_{i,j} on Pi / on Pj
//	csj                   — C^{slow_{j,i}}_j over the prefix
//	sameDir               — first_{j,i} == first_{i,j}
type denseRel struct {
	intersects bool
	sameDir    bool
	csj        model.Time
	firstJIonI int32
	firstJIonJ int32
	firstIJonI int32
	firstIJonJ int32
}

// prefixRel computes the relation of flow j against the prefix of flow
// i's path of length plen on the dense topology, mirroring
// FlowSet.PrefixRelation's scan order (Pj in j's traversal order for
// the j-side anchors, the prefix in i's order for the i-side ones).
func (tp *denseTopo) prefixRel(fs *model.FlowSet, i, plen, j int) denseRel {
	var r denseRel
	posI := tp.pos[i]
	costJ := fs.Flows[j].Cost
	var dFirstJI int32 = -1
	for k, d := range tp.dpath[j] {
		ki := posI[d]
		if ki < 0 || int(ki) >= plen {
			continue
		}
		if !r.intersects {
			r.intersects = true
			dFirstJI = d
			r.firstJIonJ = int32(k)
			r.firstJIonI = ki
			r.csj = costJ[k]
		} else if costJ[k] > r.csj {
			r.csj = costJ[k]
		}
	}
	if !r.intersects {
		return r
	}
	posJ := tp.pos[j]
	for k, d := range tp.dpath[i][:plen] {
		if kj := posJ[d]; kj >= 0 {
			r.firstIJonI = int32(k)
			r.firstIJonJ = kj
			r.sameDir = d == dFirstJI
			break
		}
	}
	return r
}

// TestDenseRelMatchesPrefixRelation differentially pins the dense
// topology against the reference relation, and the views buildViews
// fills against both, over every (i, plen, j) triple of the
// determinism corpus:
//
//   - model.FlowSet.PrefixRelation — the reference, node-id anchors
//   - denseTopo.prefixRel          — dense positional anchors
//   - buildViews                   — every view's interferer columns
//
// The positional anchors must name exactly the reference's node-id
// anchors; each built view must list exactly the intersecting flows in
// ascending order, with prefixRel's anchors as entry ids, its charge
// and direction, and a read set that is the first-occurrence dedup of
// its (iEnt, jEnt) sequence.
func TestDenseRelMatchesPrefixRelation(t *testing.T) {
	for si, fs := range determinismSets(t) {
		tp := buildTopo(fs)
		a, err := NewAnalyzer(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(fs.Flows)
		for i := 0; i < n; i++ {
			pi := fs.Flows[i].Path
			L := len(pi)
			for plen := 1; plen <= L; plen++ {
				var vc *viewCache
				if plen == L {
					vc, err = a.fullCache(i)
				} else {
					vc, err = a.prefixCache(i, plen)
				}
				if err != nil {
					t.Fatalf("set %d (i=%d plen=%d): %v", si, i, plen, err)
				}
				x := 0
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					ref := fs.PrefixRelation(i, plen, j)
					dr := tp.prefixRel(fs, i, plen, j)
					if dr.intersects != ref.Intersects {
						t.Fatalf("set %d (i=%d plen=%d j=%d): intersects %v ≠ ref %v",
							si, i, plen, j, dr.intersects, ref.Intersects)
					}
					if !dr.intersects {
						continue
					}
					pj := fs.Flows[j].Path
					if pj[dr.firstJIonJ] != ref.FirstJI || pi[dr.firstJIonI] != ref.FirstJI {
						t.Errorf("set %d (i=%d plen=%d j=%d): firstJI pos (%d on Pj, %d on Pi) ≠ ref node %d",
							si, i, plen, j, dr.firstJIonJ, dr.firstJIonI, ref.FirstJI)
					}
					if pi[dr.firstIJonI] != ref.FirstIJ || pj[dr.firstIJonJ] != ref.FirstIJ {
						t.Errorf("set %d (i=%d plen=%d j=%d): firstIJ pos (%d on Pi, %d on Pj) ≠ ref node %d",
							si, i, plen, j, dr.firstIJonI, dr.firstIJonJ, ref.FirstIJ)
					}
					if dr.csj != ref.CSlowJI {
						t.Errorf("set %d (i=%d plen=%d j=%d): csj %d ≠ ref %d",
							si, i, plen, j, dr.csj, ref.CSlowJI)
					}
					if dr.sameDir != ref.SameDirection {
						t.Errorf("set %d (i=%d plen=%d j=%d): sameDir %v ≠ ref %v",
							si, i, plen, j, dr.sameDir, ref.SameDirection)
					}
					// The built view's slot x must be this pair, field by
					// field.
					if x >= len(vc.jflow) || int(vc.jflow[x]) != j {
						t.Fatalf("set %d (i=%d plen=%d): view slot %d is not interferer %d (jflow %v)",
							si, i, plen, x, j, vc.jflow)
					}
					if got := vc.iEnt[x] - int32(a.entryBase[i]); got != dr.firstJIonI {
						t.Errorf("set %d (i=%d plen=%d j=%d): view iEnt position %d ≠ prefixRel %d",
							si, i, plen, j, got, dr.firstJIonI)
					}
					if got := vc.jEnt[x] - int32(a.entryBase[j]); got != dr.firstIJonJ {
						t.Errorf("set %d (i=%d plen=%d j=%d): view jEnt position %d ≠ prefixRel %d",
							si, i, plen, j, got, dr.firstIJonJ)
					}
					if vc.csj[x] != dr.csj || vc.sameDir[x] != dr.sameDir || vc.iperiods[x] != fs.Flows[j].Period {
						t.Errorf("set %d (i=%d plen=%d j=%d): view (csj=%d sd=%v T=%d) ≠ prefixRel (csj=%d sd=%v T=%d)",
							si, i, plen, j, vc.csj[x], vc.sameDir[x], vc.iperiods[x], dr.csj, dr.sameDir, fs.Flows[j].Period)
					}
					x++
				}
				if x != len(vc.jflow) {
					t.Errorf("set %d (i=%d plen=%d): view has %d interferers, want %d", si, i, plen, len(vc.jflow), x)
				}
				var reads []int32
				seen := map[int32]bool{}
				for y := range vc.jflow {
					for _, id := range []int32{vc.iEnt[y], vc.jEnt[y]} {
						if !seen[id] {
							seen[id] = true
							reads = append(reads, id)
						}
					}
				}
				if !slices.Equal(vc.readIDs, reads) {
					t.Errorf("set %d (i=%d plen=%d): readIDs %v ≠ first-occurrence dedup %v", si, i, plen, vc.readIDs, reads)
				}
			}
		}
	}
}
