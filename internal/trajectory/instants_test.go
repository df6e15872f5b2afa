package trajectory

import (
	"testing"

	"trajan/internal/model"
)

// coincidentCtx builds a view context whose interferers share periods
// and offsets, so several floor terms jump at the same instants.
func coincidentCtx(t *testing.T) *boundCtx {
	t.Helper()
	flows := []*model.Flow{
		model.UniformFlow("main", 12, 0, 0, 2, 1, 2, 3),
		model.UniformFlow("a", 6, 0, 0, 1, 1, 2, 3),
		model.UniformFlow("b", 6, 0, 0, 1, 1, 2, 3),  // identical twin of a
		model.UniformFlow("c", 12, 0, 0, 1, 3, 2, 1), // reverse, same period as main
	}
	fs := model.MustNewFlowSet(model.UnitDelayNetwork(), flows)
	smax := newSmaxTable(fs)
	smax.fillNoQueue(fs)
	c, err := newBoundCtx(fs, Options{}, fullView(fs, 0), smax)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.inter) != 3 {
		t.Fatalf("expected 3 interferers, got %d", len(c.inter))
	}
	return c
}

// TestCriticalInstantsCoincidentJumps: when several interferers jump at
// the same instant, the scan list must stay strictly increasing (dedup)
// with the window start first and everything inside [-Ji, -Ji+Bslow).
func TestCriticalInstantsCoincidentJumps(t *testing.T) {
	c := coincidentCtx(t)
	ts := c.criticalInstants()
	lo := -c.jitter
	hi := lo + c.bslow
	if len(ts) == 0 || ts[0] != lo {
		t.Fatalf("scan must start at window start %d, got %v", lo, ts)
	}
	for k := 1; k < len(ts); k++ {
		if ts[k] <= ts[k-1] {
			t.Fatalf("instants not strictly increasing at %d: %v", k, ts)
		}
	}
	for _, x := range ts {
		if x < lo || x >= hi {
			t.Fatalf("instant %d outside [%d,%d)", x, lo, hi)
		}
	}
	// Twin interferers a and b share period and offset: their jump
	// sets coincide exactly, so the deduped list must be no longer
	// than one interferer's jumps plus the self term's plus the start.
	maxLen := 1 + int(c.bslow/6) + 1 + int(c.bslow/12) + 1 + int(c.bslow/12) + 1
	if len(ts) > maxLen {
		t.Fatalf("dedup failed: %d instants for window %d: %v", len(ts), c.bslow, ts)
	}
}
