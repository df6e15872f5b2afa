package adversary

import (
	"math/rand"
	"testing"

	"trajan/internal/holistic"
	"trajan/internal/model"
	"trajan/internal/trajectory"
	"trajan/internal/workload"
)

// TestRandomSoundnessSweep is the repository's central validation: over
// randomized line networks (forward and reverse flows, mixed costs,
// release jitters), the adversary must never observe a response above
// the prefix-fixpoint trajectory bound or the holistic bound.
func TestRandomSoundnessSweep(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < trials; trial++ {
		fs, err := workload.RandomLine(rng, workload.RandomLineParams{
			Nodes:          4 + rng.Intn(5),
			Flows:          3 + rng.Intn(5),
			MaxUtilization: 0.35 + 0.3*rng.Float64(),
			CostLo:         1,
			CostHi:         4,
			JitterHi:       model.Time(rng.Intn(4)),
			AllowReverse:   trial%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		ta, err := trajectory.NewAnalyzer(fs, trajectory.Options{})
		if err != nil {
			t.Fatalf("trial %d: trajectory: %v", trial, err)
		}
		trajBounds, err := ta.Bounds()
		if err != nil {
			t.Fatalf("trial %d: trajectory: %v", trial, err)
		}
		// The holistic jitter feedback may legitimately diverge on sets
		// the prefix-fixpoint analysis still bounds; skip that
		// comparison then.
		hol, holErr := holistic.Analyze(fs, holistic.Options{})
		finds, err := Search(fs, Options{Seed: int64(trial), Restarts: 10, Packets: 5, ClimbSteps: 30})
		if err != nil {
			t.Fatalf("trial %d: adversary: %v", trial, err)
		}
		for i, f := range finds {
			name := fs.Flows[i].Name
			if f.MaxResponse > trajBounds[i] {
				t.Errorf("trial %d %s: observed %d > prefix-fixpoint bound %d (strategy %s, flow %+v)",
					trial, name, f.MaxResponse, trajBounds[i], f.Strategy, fs.Flows[i])
			}
			if holErr == nil && f.MaxResponse > hol.Bounds[i] {
				t.Errorf("trial %d %s: observed %d > holistic bound %d",
					trial, name, f.MaxResponse, hol.Bounds[i])
			}
		}
	}
}

// TestTrajectoryTighterThanHolisticSweep: the paper's comparison holds
// in bulk — the trajectory bound is never worse than the holistic one,
// and strictly better on multi-hop contention.
func TestTrajectoryTighterThanHolisticSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	strictlyBetter := 0
	flowsChecked := 0
	for trial := 0; trial < 15; trial++ {
		fs, err := workload.RandomLine(rng, workload.RandomLineParams{
			Nodes: 6, Flows: 5, MaxUtilization: 0.5,
			CostLo: 1, CostHi: 4, AllowReverse: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ta, err := trajectory.NewAnalyzer(fs, trajectory.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trajBounds, err := ta.Bounds()
		if err != nil {
			t.Fatal(err)
		}
		hol, err := holistic.Analyze(fs, holistic.Options{})
		if err != nil {
			// Holistic divergence while trajectory converges is itself
			// the "strictly better" outcome.
			strictlyBetter += fs.N()
			flowsChecked += fs.N()
			continue
		}
		for i := range fs.Flows {
			flowsChecked++
			if trajBounds[i] > hol.Bounds[i] {
				t.Errorf("trial %d flow %d: trajectory %d > holistic %d",
					trial, i, trajBounds[i], hol.Bounds[i])
			}
			if trajBounds[i] < hol.Bounds[i] {
				strictlyBetter++
			}
		}
	}
	if strictlyBetter*2 < flowsChecked {
		t.Errorf("trajectory strictly better on only %d/%d flows", strictlyBetter, flowsChecked)
	}
}

// TestSearchFindsStructuralWorstCase: on the exactly-analysable tandem
// the adversary must attain the bound (10), demonstrating that the
// merge-align heuristic finds real worst cases.
func TestSearchFindsStructuralWorstCase(t *testing.T) {
	f1 := model.UniformFlow("f1", 100, 0, 0, 3, 1, 2)
	f2 := model.UniformFlow("f2", 100, 0, 0, 3, 1, 2)
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{f1, f2})
	finds, err := Search(fs, Options{Seed: 3, Restarts: 4, Packets: 3, ClimbSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range finds {
		if f.MaxResponse != 10 {
			t.Errorf("flow %d: adversary reached %d, want the exact worst case 10", i, f.MaxResponse)
		}
	}
}

// TestFindingsReproducible: re-running a finding's scenario reproduces
// the reported response.
func TestFindingsReproducible(t *testing.T) {
	fs := model.PaperExample()
	finds, err := Search(fs, Options{Seed: 5, Restarts: 4, Packets: 4, ClimbSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range finds {
		res, err := simRun(t, fs, f)
		if err != nil {
			t.Fatal(err)
		}
		if got := res; got != f.MaxResponse {
			t.Errorf("flow %d: replay %d ≠ reported %d", f.Flow, got, f.MaxResponse)
		}
	}
}
