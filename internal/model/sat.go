package model

// Saturating Time arithmetic.
//
// The analysis domain is the open interval (−TimeInfinity, TimeInfinity);
// every value at or beyond the rails ±TimeInfinity means "saturated".
// The operations below clamp their result onto the rails instead of
// wrapping int64, and record the event in a caller-supplied sticky flag:
// once *sat is true it is never cleared, so a whole computation can
// thread one flag through and decide at the end whether its result is
// exact or must degrade to an explicit Unbounded verdict. Saturated
// operands propagate like NaN — any input on or past a rail flags the
// computation and rails the result — so a clamped intermediate can never
// silently launder itself back into a finite answer.
//
// Soundness direction: the analysis only ever reports a SATURATED value
// as TimeInfinity ("unbounded"), never as the clamped number itself, so
// clamping cannot produce an optimistic bound. Quantities that appear
// with negative sign in a bound (e.g. Smin inside an A offset) are safe
// for the same reason: the sticky flag forces the conservative verdict
// before the clamped value can tighten anything.
//
// Why the rails are ±1<<60: |a|,|b| < 2^60 implies |a±b| < 2^61, which
// int64 represents exactly, so a single post-check suffices and the
// fast path is branch-light.

// IsUnbounded reports whether t lies on or beyond the saturation rail,
// i.e. represents an unbounded ("infinite") quantity.
func IsUnbounded(t Time) bool { return t >= TimeInfinity || t <= -TimeInfinity }

// rail clamps an already-saturated value onto the rail of its sign.
func rail(t Time) Time {
	if t < 0 {
		return -TimeInfinity
	}
	return TimeInfinity
}

// AddSat returns a+b clamped to the rails, setting *sat if either
// operand was saturated or the sum left the finite domain.
func AddSat(a, b Time, sat *bool) Time {
	if IsUnbounded(a) {
		*sat = true
		return rail(a)
	}
	if IsUnbounded(b) {
		*sat = true
		return rail(b)
	}
	s := a + b // exact: |a|,|b| < 2^60
	if IsUnbounded(s) {
		*sat = true
		return rail(s)
	}
	return s
}

// SubSat returns a−b clamped to the rails, setting *sat if either
// operand was saturated or the difference left the finite domain.
func SubSat(a, b Time, sat *bool) Time {
	if IsUnbounded(a) {
		*sat = true
		return rail(a)
	}
	if IsUnbounded(b) {
		*sat = true
		return rail(-b)
	}
	s := a - b // exact: |a|,|b| < 2^60
	if IsUnbounded(s) {
		*sat = true
		return rail(s)
	}
	return s
}

// MulSat returns a·b clamped to the rails, setting *sat if either
// operand was saturated or the product left the finite domain.
func MulSat(a, b Time, sat *bool) Time {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	if IsUnbounded(a) || IsUnbounded(b) {
		*sat = true
		if neg {
			return -TimeInfinity
		}
		return TimeInfinity
	}
	p := a * b
	// |a|,|b| < 2^60 and a ≠ 0, so p/a ≠ b detects int64 wrap exactly
	// (the MinInt64/−1 edge cannot occur inside the rails).
	if p/a != b || IsUnbounded(p) {
		*sat = true
		if neg {
			return -TimeInfinity
		}
		return TimeInfinity
	}
	return p
}

// OnePlusFloorPosSat is the checked (1 + ⌊a/b⌋)⁺ packet-count operator
// for b > 0: the result is clamped to TimeInfinity (flagging *sat) when
// the window a is saturated or the count itself reaches the rail. A
// negatively saturated window is exact — the count is simply zero.
func OnePlusFloorPosSat(a, b Time, sat *bool) Time {
	if a >= TimeInfinity {
		*sat = true
		return TimeInfinity
	}
	v := 1 + FloorDiv(a, b) // exact: a < 2^60, so v ≤ 2^60
	if v < 0 {
		return 0
	}
	if v >= TimeInfinity {
		*sat = true
		return TimeInfinity
	}
	return v
}
