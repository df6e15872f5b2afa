// Package model defines the network, flow and path-relation model of
// Martin & Minet's FIFO schedulability analysis (IPDPS 2006): sporadic
// flows with fixed paths over a store-and-forward network whose nodes
// schedule packets FIFO and whose links have bounded delays.
//
// Time is discrete: every temporal quantity is an integral number of
// clock ticks, per the paper's Section 2 ("we assume that time is
// discrete"). Results obtained with discrete scheduling are as general
// as continuous ones when all flow parameters are multiples of the node
// clock tick.
package model

import "fmt"

// Time is a point in (or duration of) discrete time, in clock ticks.
// All analysis in this module is exact integer arithmetic; there is no
// floating point anywhere on the bound-computation path.
type Time int64

// TimeInfinity is a sentinel for "unbounded"; safely addable to ordinary
// durations without overflow.
const TimeInfinity Time = 1 << 60

// FloorDiv returns ⌊a/b⌋ for b > 0, rounding toward negative infinity
// (Go's integer division truncates toward zero, which differs for a < 0).
//
// The panic on b ≤ 0 is a documented internal invariant: every divisor
// on the analysis paths is a flow period, which Flow.Validate requires
// to be positive. Callers dividing by unvetted values must check the
// divisor first.
func FloorDiv(a, b Time) Time {
	if b <= 0 {
		panic(fmt.Sprintf("model.FloorDiv: non-positive divisor %d", b))
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// CeilDiv returns ⌈a/b⌉ for b > 0, rounding toward positive infinity.
func CeilDiv(a, b Time) Time {
	return -FloorDiv(-a, b)
}

// OnePlusFloorPos computes the paper's (1 + ⌊a/b⌋)⁺ operator:
// max(0, 1 + ⌊a/b⌋). It counts the packets of a sporadic flow of
// minimum interarrival time b whose generation times can fall inside a
// closed window of length a (zero when the window is empty).
func OnePlusFloorPos(a, b Time) Time {
	v := 1 + FloorDiv(a, b)
	if v < 0 {
		return 0
	}
	return v
}
