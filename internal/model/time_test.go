package model

import (
	"testing"
	"testing/quick"
)

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 36, 0},
		{35, 36, 0},
		{36, 36, 1},
		{71, 36, 1},
		{72, 36, 2},
		{-1, 36, -1},
		{-36, 36, -1},
		{-37, 36, -2},
		{7, 1, 7},
		{-7, 1, -7},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 36, 0},
		{1, 36, 1},
		{36, 36, 1},
		{37, 36, 2},
		{-1, 36, 0},
		{-36, 36, -1},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorDivPanicsOnNonPositiveDivisor(t *testing.T) {
	for _, b := range []Time{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FloorDiv(1,%d) did not panic", b)
				}
			}()
			FloorDiv(1, b)
		}()
	}
}

func TestOnePlusFloorPos(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{-72, 36, 0},
		{-37, 36, 0},
		{-36, 36, 0},
		{-35, 36, 0},
		{-1, 36, 0},
		{0, 36, 1},
		{35, 36, 1},
		{36, 36, 2},
		{100, 36, 3},
		{29, 10, 3},
		{30, 10, 4}, // exact multiple: the packet at the window edge counts
		{31, 10, 4},
		{0, 1, 1}, // unit period: every tick is a multiple
		{7, 1, 8},
	}
	for _, c := range cases {
		if got := OnePlusFloorPos(c.a, c.b); got != c.want {
			t.Errorf("OnePlusFloorPos(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: FloorDiv and CeilDiv bracket the rational quotient and
// reconstruct the dividend.
func TestDivisionProperties(t *testing.T) {
	f := func(a int32, b int32) bool {
		bb := Time(b%1000) + 1 // positive divisor
		if bb <= 0 {
			bb += 1000
		}
		aa := Time(a)
		fl, ce := FloorDiv(aa, bb), CeilDiv(aa, bb)
		if fl > ce || ce-fl > 1 {
			return false
		}
		if aa%bb == 0 && fl != ce {
			return false
		}
		rem := aa - fl*bb
		return rem >= 0 && rem < bb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the packet-count operator is monotone in the window and
// counts one packet per full period plus the partial one.
func TestOnePlusFloorPosProperties(t *testing.T) {
	f := func(a int32, b int32) bool {
		bb := Time(b%1000) + 1
		if bb <= 0 {
			bb += 1000
		}
		aa := Time(a % 100000)
		n := OnePlusFloorPos(aa, bb)
		if n < 0 {
			return false
		}
		if aa >= 0 && n != 1+aa/bb {
			return false
		}
		// Monotone in window length.
		return OnePlusFloorPos(aa+1, bb) >= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
