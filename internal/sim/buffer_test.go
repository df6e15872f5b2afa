package sim

import (
	"testing"

	"trajan/internal/model"
)

// TestFiniteBufferDrops: four one-packet flows hit one node with room
// for two packets at t=0; arrivals are admitted in tie-break order, so
// exactly flows 2 and 3 drop, and every count balances.
func TestFiniteBufferDrops(t *testing.T) {
	fs := singleHopFlowSet(t, 4)
	sc := PeriodicScenario(fs, nil, 1)
	res, err := NewEngine(fs, Config{Buffer: 2}).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for f, wantDrop := range []int{0, 0, 1, 1} {
		if got := res.PerFlow[f].Drops; got != wantDrop {
			t.Errorf("flow %d: %d drops, want %d", f, got, wantDrop)
		}
	}
	if res.Delivered() != 2 || res.TotalDrops() != 2 {
		t.Errorf("delivered %d dropped %d, want 2/2", res.Delivered(), res.TotalDrops())
	}
	b := res.NodeBacklog[model.NodeID(1)]
	if b.Drops != 2 || b.MaxPackets != 2 {
		t.Errorf("node backlog %+v, want 2 drops and max 2 packets", b)
	}
}

// TestBufferConservation: under adversarial bursty traffic with tiny
// buffers, delivered plus dropped still equals generated — nothing is
// lost twice or leaked.
func TestBufferConservation(t *testing.T) {
	fs := model.PaperExample()
	const n = 60
	src := NewBurstySource(fs, 9, n, 6)
	res, err := NewEngine(fs, Config{Buffer: 3}).RunSource(t.Context(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDrops() == 0 {
		t.Error("bursty traffic through 3-packet buffers should drop")
	}
	if got, want := res.Delivered()+res.TotalDrops(), fs.N()*n; got != want {
		t.Errorf("delivered+dropped = %d, want %d", got, want)
	}
	var nodeDrops int
	for _, b := range res.NodeBacklog {
		nodeDrops += b.Drops
		if b.MaxPackets > 3 {
			t.Errorf("backlog %d exceeds the 3-packet buffer", b.MaxPackets)
		}
	}
	if nodeDrops != res.TotalDrops() {
		t.Errorf("per-node drops %d != per-flow drops %d", nodeDrops, res.TotalDrops())
	}
}

// TestLosslessNeverDrops: with unlimited buffers (the paper's model)
// the engine must not drop, whatever the traffic.
func TestLosslessNeverDrops(t *testing.T) {
	fs := model.PaperExample()
	src := NewBurstySource(fs, 4, 40, 8)
	res, err := NewEngine(fs, Config{}).RunSource(t.Context(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDrops() != 0 {
		t.Errorf("%d drops under unlimited buffers", res.TotalDrops())
	}
	if res.Delivered() != fs.N()*40 {
		t.Errorf("delivered %d, want %d", res.Delivered(), fs.N()*40)
	}
}

// TestStreamingAllocsFlat: with retention off, a run's allocations are
// O(in-flight packets), not O(total packets) — the pools recycle. A 10×
// longer run must not allocate anywhere near 10× as much.
func TestStreamingAllocsFlat(t *testing.T) {
	fs := model.PaperExample()
	run := func(n int) func() {
		return func() {
			eng := NewEngine(fs, Config{})
			if _, err := eng.RunSource(t.Context(), NewSporadicSource(fs, 1, n, 10, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := testing.AllocsPerRun(3, run(300))
	large := testing.AllocsPerRun(3, run(3000))
	if large > 2*small+256 {
		t.Errorf("allocs grew with packet count: %.0f at 300 pkts/flow vs %.0f at 3000", small, large)
	}
}
