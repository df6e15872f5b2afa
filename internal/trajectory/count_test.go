package trajectory

import (
	"testing"

	"trajan/internal/model"
)

// TestCountEdgeCases pins the packet count in the analysed flow's own
// term of W^{last}_{i,t} at its boundary inputs: under the paper's
// closed window an empty window counts one packet (the one generated
// exactly at the window edge), a negative window counts none, and an
// exact period multiple k·T counts k+1. The count is read back from
// latestStart of a lone flow with no jitter, where
// W(t) = fixed + count(t, T)·Cslow.
func TestCountEdgeCases(t *testing.T) {
	cases := []struct {
		win, period model.Time
		want        model.Time
	}{
		{0, 10, 1}, // empty window: edge packet only
		{-1, 10, 0},
		{-10, 10, 0},
		{1, 10, 1},
		{9, 10, 1},
		{10, 10, 2}, // exact one period
		{30, 10, 4}, // exact multiple
		{31, 10, 4},
		{29, 10, 3},
		{0, 1, 1},
		{7, 1, 8}, // unit period: every tick is a multiple
	}
	for _, c := range cases {
		fs := model.MustNewFlowSet(model.UnitDelayNetwork(), []*model.Flow{
			model.UniformFlow("lone", c.period, 0, 0, 1, 1, 2, 3),
		})
		smax := newSmaxTable(fs)
		smax.fillNoQueue(fs)
		ctx, err := newBoundCtx(fs, Options{}, fullView(fs, 0), smax)
		if err != nil {
			t.Fatal(err)
		}
		if len(ctx.inter) != 0 || ctx.cslow != 1 {
			t.Fatalf("lone flow: %d interferers, Cslow %d; want 0, 1", len(ctx.inter), ctx.cslow)
		}
		if got := ctx.latestStart(c.win) - ctx.fixed; got != c.want {
			t.Errorf("count(%d,%d) = %d, want %d", c.win, c.period, got, c.want)
		}
		if got := model.OnePlusFloorPos(c.win, c.period); got != c.want {
			t.Errorf("OnePlusFloorPos(%d,%d) = %d, want %d", c.win, c.period, got, c.want)
		}
	}
}
