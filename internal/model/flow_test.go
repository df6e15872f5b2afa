package model

import (
	"errors"
	"strings"
	"testing"
)

func TestPathBasics(t *testing.T) {
	p := Path{1, 3, 4, 5}
	if p.First() != 1 || p.Last() != 5 {
		t.Errorf("First/Last = %d/%d", p.First(), p.Last())
	}
	if !p.Contains(4) || p.Contains(2) {
		t.Error("Contains broken")
	}
	if p.Index(4) != 2 || p.Index(99) != -1 {
		t.Error("Index broken")
	}
	if pre3, err := p.Pre(3); err != nil || pre3 != 1 {
		t.Errorf("Pre(3) = %d, %v", pre3, err)
	}
	if pre5, err := p.Pre(5); err != nil || pre5 != 4 {
		t.Errorf("Pre(5) = %d, %v", pre5, err)
	}
	if suc1, err := p.Suc(1); err != nil || suc1 != 3 {
		t.Errorf("Suc(1) = %d, %v", suc1, err)
	}
	if suc4, err := p.Suc(4); err != nil || suc4 != 5 {
		t.Errorf("Suc(4) = %d, %v", suc4, err)
	}
}

func TestPathPreErrors(t *testing.T) {
	p := Path{1, 3}
	for _, h := range []NodeID{1, 99} {
		if _, err := p.Pre(h); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Pre(%d) error = %v, want ErrInvalidConfig", h, err)
		}
	}
}

func TestPathSucErrors(t *testing.T) {
	p := Path{1, 3}
	for _, h := range []NodeID{3, 99} {
		if _, err := p.Suc(h); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Suc(%d) error = %v, want ErrInvalidConfig", h, err)
		}
	}
}

func TestPathCloneIndependent(t *testing.T) {
	p := Path{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestFlowValidate(t *testing.T) {
	good := UniformFlow("f", 10, 1, 20, 2, 1, 2, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Flow)
		want   string
	}{
		{"empty path", func(f *Flow) { f.Path = nil; f.Cost = nil }, "empty path"},
		{"loop", func(f *Flow) { f.Path = Path{1, 2, 1}; f.Cost = []Time{1, 1, 1} }, "twice"},
		{"cost mismatch", func(f *Flow) { f.Cost = f.Cost[:2] }, "costs"},
		{"zero period", func(f *Flow) { f.Period = 0 }, "period"},
		{"negative jitter", func(f *Flow) { f.Jitter = -1 }, "jitter"},
		{"negative deadline", func(f *Flow) { f.Deadline = -5 }, "deadline"},
		{"zero cost", func(f *Flow) { f.Cost[1] = 0 }, "cost"},
		{"empty blocking", func(f *Flow) { f.Blocking = []Time{} }, "blocking terms"},
		{"short blocking", func(f *Flow) { f.Blocking = []Time{1, 1} }, "blocking terms"},
		{"long blocking", func(f *Flow) { f.Blocking = make([]Time, len(f.Path)+1) }, "blocking terms"},
		{"negative blocking", func(f *Flow) { f.Blocking = make([]Time, len(f.Path)); f.Blocking[1] = -1 }, "blocking -1"},
		{"unbounded blocking", func(f *Flow) { f.Blocking = make([]Time, len(f.Path)); f.Blocking[0] = TimeInfinity }, "blocking"},
	}
	for _, c := range cases {
		f := good.Clone()
		c.mutate(f)
		err := f.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestFlowCostAt(t *testing.T) {
	f := &Flow{Name: "f", Period: 10, Path: Path{1, 2, 3}, Cost: []Time{5, 7, 2}, parent: -1}
	if f.CostAt(2) != 7 {
		t.Errorf("CostAt(2) = %d", f.CostAt(2))
	}
	if f.CostAt(99) != 0 {
		t.Error("CostAt off-path must be 0 (paper convention)")
	}
}

func TestSlowNodeAndCandidates(t *testing.T) {
	// Nodes 2 and 3 are both slow-node candidates (cost 7); the earliest
	// wins.
	f := &Flow{Name: "f", Period: 10, Path: Path{1, 2, 3, 4}, Cost: []Time{5, 7, 7, 2}, parent: -1}
	n, c := f.SlowNode()
	if n != 2 || c != 7 {
		t.Errorf("SlowNode = (%d,%d), want (2,7)", n, c)
	}
}

func TestTotalCostAndMinTraversal(t *testing.T) {
	f := &Flow{Name: "f", Period: 10, Path: Path{1, 2, 3}, Cost: []Time{5, 7, 2}, parent: -1}
	if f.TotalCost() != 14 {
		t.Errorf("TotalCost = %d", f.TotalCost())
	}
	// Definition 2's subtrahend: all processing plus Lmin per link.
	if got := f.MinTraversal(3); got != 14+2*3 {
		t.Errorf("MinTraversal = %d", got)
	}
}

func TestUniformFlow(t *testing.T) {
	f := UniformFlow("u", 36, 0, 40, 4, 1, 3, 4, 5)
	if len(f.Cost) != 4 {
		t.Fatalf("cost length %d", len(f.Cost))
	}
	for _, c := range f.Cost {
		if c != 4 {
			t.Errorf("non-uniform cost %d", c)
		}
	}
	if f.Class != ClassEF {
		t.Error("UniformFlow must default to EF")
	}
	if f.IsVirtual() {
		t.Error("fresh flow must not be virtual")
	}
}

func TestFlowCloneIndependence(t *testing.T) {
	f := UniformFlow("f", 10, 0, 0, 1, 1, 2)
	f.Blocking = []Time{2, 3}
	g := f.Clone()
	g.Cost[0] = 9
	g.Path[0] = 9
	g.Blocking[0] = 9
	if f.Cost[0] != 1 || f.Path[0] != 1 || f.Blocking[0] != 2 {
		t.Error("Clone shares slices")
	}
	if UniformFlow("h", 10, 0, 0, 1, 1, 2).Clone().Blocking != nil {
		t.Error("Clone invented Blocking for a flow without it")
	}
}

func TestBlockingOver(t *testing.T) {
	f := UniformFlow("f", 10, 0, 0, 1, 1, 2, 3)
	var sat bool
	if got := f.BlockingOver(3, &sat); got != 0 || sat {
		t.Errorf("nil Blocking: %d (sat %v), want 0", got, sat)
	}
	f.Blocking = []Time{2, 0, 5}
	for n, want := range []Time{0, 2, 2, 7, 7} {
		if got := f.BlockingOver(n, &sat); got != want || sat {
			t.Errorf("BlockingOver(%d) = %d (sat %v), want %d", n, got, sat, want)
		}
	}
	f.Blocking = []Time{TimeInfinity - 1, TimeInfinity - 1, 0}
	if got := f.BlockingOver(3, &sat); got != TimeInfinity || !sat {
		t.Errorf("saturating sum = %d (sat %v), want the rail", got, sat)
	}
}

func TestClassString(t *testing.T) {
	if ClassEF.String() != "EF" || ClassAF.String() != "AF" || ClassBE.String() != "BE" {
		t.Error("class names broken")
	}
	if Class(42).String() != "Class(42)" {
		t.Error("unknown class formatting broken")
	}
}
