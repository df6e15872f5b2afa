package trajectory

import (
	"testing"

	"trajan/internal/model"
)

// TestCalibrationPaperExample prints the bounds every Smax mode and
// window convention produces on the paper's Section-5 example, next to
// Table 2's published values. This is the calibration experiment that
// pinned the package defaults; EXPERIMENTS.md discusses the outcome.
func TestCalibrationPaperExample(t *testing.T) {
	fs := model.PaperExample()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"prefix-fixpoint", Options{Smax: SmaxPrefixFixpoint}},
		{"prefix-fixpoint/strict", Options{Smax: SmaxPrefixFixpoint, StrictWindow: true}},
		{"prefix-fixpoint/no-scan", Options{Smax: SmaxPrefixFixpoint, DisableTScan: true}},
		{"no-queue", Options{Smax: SmaxNoQueue}},
	} {
		res, err := Analyze(fs, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%-26s bounds=%v sweeps=%d converged=%v (paper: %v)",
			tc.name, res.Bounds, res.SmaxSweeps, res.SmaxConverged, model.PaperTrajectoryBounds)
	}
}
