package holistic

import (
	"testing"

	"trajan/internal/model"
)

// TestCalibrationPaperExample compares the holistic bounds on the
// paper's Section-5 example with Table 2's published holistic row
// (EXPERIMENTS.md E1).
func TestCalibrationPaperExample(t *testing.T) {
	fs := model.PaperExample()
	res, err := Analyze(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("holistic bounds=%v sweeps=%d (paper: %v)",
		res.Bounds, res.Sweeps, model.PaperHolisticBounds)
	for i, f := range fs.Flows {
		t.Logf("  %s per-node=%v jitter-at-node=%v", f.Name, res.NodeResponse[i], res.ArrivalJitter[i])
	}
}
