package trajectory

import (
	"testing"

	"trajan/internal/model"
)

// TestCalibrationPaperExample prints the bounds on the paper's
// Section-5 example next to Table 2's published values. EXPERIMENTS.md
// E1 sets them against the worst cases exact.Verify reaches.
func TestCalibrationPaperExample(t *testing.T) {
	fs := model.PaperExample()
	res, err := Analyze(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("prefix-fixpoint bounds=%v sweeps=%d converged=%v (paper: %v)",
		res.Bounds, res.SmaxSweeps, res.SmaxConverged, model.PaperTrajectoryBounds)
}
