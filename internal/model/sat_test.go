package model

import (
	"math"
	"math/big"
	"testing"
)

func TestSatOpsExactInsideDomain(t *testing.T) {
	var sat bool
	if got := AddSat(3, 4, &sat); got != 7 || sat {
		t.Errorf("AddSat(3,4) = %d sat=%v", got, sat)
	}
	if got := SubSat(3, 10, &sat); got != -7 || sat {
		t.Errorf("SubSat(3,10) = %d sat=%v", got, sat)
	}
	if got := MulSat(-6, 7, &sat); got != -42 || sat {
		t.Errorf("MulSat(-6,7) = %d sat=%v", got, sat)
	}
	if got := OnePlusFloorPosSat(7, 3, &sat); got != 3 || sat {
		t.Errorf("OnePlusFloorPosSat(7,3) = %d sat=%v", got, sat)
	}
	if got := OnePlusFloorPosSat(-7, 3, &sat); got != 0 || sat {
		t.Errorf("OnePlusFloorPosSat(-7,3) = %d sat=%v", got, sat)
	}
}

func TestSatOpsClampAndFlag(t *testing.T) {
	big := TimeInfinity - 1
	var sat bool
	if got := AddSat(big, big, &sat); got != TimeInfinity || !sat {
		t.Errorf("AddSat near rail = %d sat=%v", got, sat)
	}
	sat = false
	if got := SubSat(-big, big, &sat); got != -TimeInfinity || !sat {
		t.Errorf("SubSat near rail = %d sat=%v", got, sat)
	}
	sat = false
	if got := MulSat(big, -2, &sat); got != -TimeInfinity || !sat {
		t.Errorf("MulSat wrap = %d sat=%v", got, sat)
	}
	sat = false
	if got := OnePlusFloorPosSat(TimeInfinity, 1, &sat); got != TimeInfinity || !sat {
		t.Errorf("OnePlusFloorPosSat(Inf,1) = %d sat=%v", got, sat)
	}
}

// TestSatOpsPropagate: a saturated operand behaves like NaN — the flag
// is set and the result stays on a rail, so a clamped intermediate can
// never re-enter the finite domain.
func TestSatOpsPropagate(t *testing.T) {
	var sat bool
	if got := AddSat(TimeInfinity, -5, &sat); got != TimeInfinity || !sat {
		t.Errorf("AddSat(Inf,-5) = %d sat=%v", got, sat)
	}
	sat = false
	if got := SubSat(7, TimeInfinity, &sat); got != -TimeInfinity || !sat {
		t.Errorf("SubSat(7,Inf) = %d sat=%v", got, sat)
	}
	sat = false
	if got := SubSat(TimeInfinity, TimeInfinity, &sat); !IsUnbounded(got) || !sat {
		t.Errorf("SubSat(Inf,Inf) = %d sat=%v", got, sat)
	}
	sat = false
	if got := MulSat(-TimeInfinity, 3, &sat); got != -TimeInfinity || !sat {
		t.Errorf("MulSat(-Inf,3) = %d sat=%v", got, sat)
	}
	// Multiplying a rail by zero is exactly zero, not a flag: the zero
	// annihilates the operand before it can contribute to any bound.
	sat = false
	if got := MulSat(TimeInfinity, 0, &sat); got != 0 || sat {
		t.Errorf("MulSat(Inf,0) = %d sat=%v", got, sat)
	}
}

func TestIsUnbounded(t *testing.T) {
	for _, c := range []struct {
		t    Time
		want bool
	}{
		{0, false}, {TimeInfinity - 1, false}, {-(TimeInfinity - 1), false},
		{TimeInfinity, true}, {-TimeInfinity, true},
		{math.MaxInt64, true}, {math.MinInt64, true},
	} {
		if got := IsUnbounded(c.t); got != c.want {
			t.Errorf("IsUnbounded(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

// clampBig maps an exact big.Int result onto the saturating domain: any
// value on or past a rail clamps to that rail and must have flagged.
func clampBig(v *big.Int) (Time, bool) {
	inf := big.NewInt(int64(TimeInfinity))
	ninf := new(big.Int).Neg(inf)
	if v.Cmp(inf) >= 0 {
		return TimeInfinity, true
	}
	if v.Cmp(ninf) <= 0 {
		return -TimeInfinity, true
	}
	return Time(v.Int64()), false
}

// FuzzCheckedArith is the differential oracle for the saturating ops:
// for finite (in-domain) operands, every op must agree exactly with
// arbitrary-precision arithmetic clamped to the rails, and the sticky
// flag must be set iff the exact result left the domain. Saturated
// operands must always flag and rail.
func FuzzCheckedArith(f *testing.F) {
	seeds := []int64{0, 1, -1, 36, 1<<60 - 1, -(1<<60 - 1), 1 << 59, 1 << 60, -(1 << 60), math.MaxInt64, math.MinInt64}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, ar, br int64) {
		a, b := Time(ar), Time(br)
		ba, bb := big.NewInt(ar), big.NewInt(br)

		check := func(name string, got Time, sat bool, exact *big.Int) {
			if IsUnbounded(a) || IsUnbounded(b) {
				if !sat || !IsUnbounded(got) {
					t.Fatalf("%s(%d,%d): saturated operand, got %d sat=%v", name, a, b, got, sat)
				}
				return
			}
			want, wantSat := clampBig(exact)
			if got != want || sat != wantSat {
				t.Fatalf("%s(%d,%d) = %d sat=%v, want %d sat=%v", name, a, b, got, sat, want, wantSat)
			}
		}

		var sat bool
		got := AddSat(a, b, &sat)
		check("AddSat", got, sat, new(big.Int).Add(ba, bb))

		sat = false
		got = SubSat(a, b, &sat)
		check("SubSat", got, sat, new(big.Int).Sub(ba, bb))

		sat = false
		got = MulSat(a, b, &sat)
		if a == 0 || b == 0 {
			if got != 0 || sat {
				t.Fatalf("MulSat(%d,%d) = %d sat=%v, want 0", a, b, got, sat)
			}
		} else {
			check("MulSat", got, sat, new(big.Int).Mul(ba, bb))
		}

		if b > 0 && !IsUnbounded(b) {
			sat = false
			got = OnePlusFloorPosSat(a, b, &sat)
			if a >= TimeInfinity {
				if got != TimeInfinity || !sat {
					t.Fatalf("OnePlusFloorPosSat(%d,%d) = %d sat=%v, want Inf", a, b, got, sat)
				}
			} else {
				// Exact: ⌊a/b⌋ via big.Int Euclidean-style floor division.
				q := new(big.Int).Div(ba, bb) // big.Int Div floors for positive divisor
				exact := new(big.Int).Add(q, big.NewInt(1))
				if exact.Sign() < 0 {
					exact.SetInt64(0)
				}
				want, wantSat := clampBig(exact)
				if got != want || sat != wantSat {
					t.Fatalf("OnePlusFloorPosSat(%d,%d) = %d sat=%v, want %d sat=%v", a, b, got, sat, want, wantSat)
				}
			}
		}
	})
}
