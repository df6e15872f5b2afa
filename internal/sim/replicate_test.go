package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"trajan/internal/model"
)

// TestReplicationDeterminism: the batch result — every per-replication
// result and the merge — is identical at any worker count, and each
// replication matches a serial RunSource of the same source.
func TestReplicationDeterminism(t *testing.T) {
	fs := model.PaperExample()
	const reps = 12
	mkSource := func(rep int) ScenarioSource {
		return NewSporadicSource(fs, 100+int64(rep), 30, 8, 2)
	}
	eng := NewEngine(fs, Config{})

	var ref *Replicated
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := eng.RunReplications(t.Context(), reps, workers, mkSource)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Reps) != reps {
				t.Fatalf("%d replication results, want %d", len(got.Reps), reps)
			}
			if ref == nil {
				ref = got
				serial, err := eng.RunSource(t.Context(), mkSource(reps-1))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, got.Reps[reps-1]) {
					t.Error("replication result differs from a serial run of the same source")
				}
				return
			}
			if !reflect.DeepEqual(ref.Reps, got.Reps) {
				t.Error("per-replication results depend on the worker count")
			}
			if !reflect.DeepEqual(ref.Merged, got.Merged) {
				t.Error("merged result depends on the worker count")
			}
		})
	}

	var delivered int
	for _, r := range ref.Reps {
		delivered += r.Delivered()
	}
	if ref.Merged.Delivered() != delivered {
		t.Errorf("merged delivered %d, want sum %d", ref.Merged.Delivered(), delivered)
	}
	for i := range ref.Merged.PerFlow {
		for _, r := range ref.Reps {
			if r.PerFlow[i].MaxResponse > ref.Merged.PerFlow[i].MaxResponse {
				t.Errorf("flow %d: merged max response %d below replication max %d",
					i, ref.Merged.PerFlow[i].MaxResponse, r.PerFlow[i].MaxResponse)
			}
		}
	}
}

// TestReplicationErrorPropagation: a failing replication cancels the
// batch and surfaces its index.
func TestReplicationErrorPropagation(t *testing.T) {
	fs := singleHopFlowSet(t, 2)
	eng := NewEngine(fs, Config{})
	_, err := eng.RunReplications(t.Context(), 4, 2, func(rep int) ScenarioSource {
		n := 2
		if rep == 3 {
			n = 5 // wrong flow count
		}
		return &fakeSource{nflows: n, specs: make([][]PacketSpec, n), pos: make([]int, n)}
	})
	if err == nil || !strings.Contains(err.Error(), "replication 3") {
		t.Errorf("got error %v, want one naming replication 3", err)
	}
}

// TestReplicationLowestErrorWins: when several replications fail, the
// batch names the lowest-indexed one, however the workers interleave.
// Replication 6 fails at once (wrong flow count); replication 1 runs a
// long stream before it breaks the source contract, so it fails last
// in wall-clock time and must not be canceled by replication 6.
func TestReplicationLowestErrorWins(t *testing.T) {
	fs := bigParkingLot(t, 12)
	eng := NewEngine(fs, Config{})
	for round := 0; round < 3; round++ {
		_, err := eng.RunReplications(t.Context(), 8, 8, func(rep int) ScenarioSource {
			switch rep {
			case 1:
				return periodicSource(fs, 200, func(f, k int, s *PacketSpec) {
					if f == 0 && k == 199 {
						s.Released = -1
					}
				})
			case 6:
				return &fakeSource{nflows: 1, specs: make([][]PacketSpec, 1), pos: make([]int, 1)}
			}
			return NewSporadicSource(fs, int64(rep), 50, 5, 1)
		})
		if err == nil || !strings.Contains(err.Error(), "replication 1:") {
			t.Fatalf("round %d: got error %v, want one naming replication 1", round, err)
		}
	}
}

// TestReplicationConfigErrors: invalid batch parameters are rejected.
func TestReplicationConfigErrors(t *testing.T) {
	fs := singleHopFlowSet(t, 1)
	mk := func(int) ScenarioSource { return NewSporadicSource(fs, 1, 1, 0, 0) }
	if _, err := NewEngine(fs, Config{}).RunReplications(t.Context(), 0, 1, mk); err == nil {
		t.Error("zero replications accepted")
	}
}

// TestMergeResultsEmpty: merging nothing yields an empty result, not a
// panic.
func TestMergeResultsEmpty(t *testing.T) {
	m := MergeResults(nil)
	if m.Delivered() != 0 || m.TotalDrops() != 0 {
		t.Errorf("empty merge has counts: %+v", m)
	}
}
