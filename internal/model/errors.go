package model

import (
	"errors"
	"fmt"
)

// The analysis packages classify every failure into one of these
// sentinel kinds. Callers branch on the kind with errors.Is; the
// message text remains the detailed, human-readable diagnosis.
//
// The taxonomy is deliberately small — four user-facing kinds plus one
// for contained bugs — so that batch drivers (admission control, the
// CLI's exit codes) can make a policy decision without parsing
// messages:
//
//   - ErrInvalidConfig: the input violates the model's contract
//     (malformed JSON, non-positive period, node not on a path,
//     mismatched option vectors). Fix the configuration.
//   - ErrUnstable: the configuration is well-formed but the analysis
//     diverges — a busy period or bound grows past Options.Horizon,
//     because some busy period's load is ≥ 1 (for the trajectory
//     analysis, its Bslow load, which can reach 1 while every node's
//     utilization is below 1). The flow set is not schedulable as given.
//   - ErrOverflow: a fixed point left the finite time domain entirely
//     (saturated at TimeInfinity). Like ErrUnstable this is a sound,
//     conservative refusal — no wrapped finite number is ever reported.
//   - ErrCanceled: the caller's context was canceled or an explicit
//     budget (iterations, simulated events) was exhausted before the
//     analysis finished. The partial state is discarded; retrying with
//     a live context recomputes from scratch.
//   - ErrInternal: a contained panic or broken invariant inside the
//     analysis. Always a bug in this module, never in the input.
var (
	ErrInvalidConfig = errors.New("invalid configuration")
	ErrUnstable      = errors.New("unstable configuration")
	ErrOverflow      = errors.New("arithmetic overflow")
	ErrCanceled      = errors.New("analysis canceled")
	ErrInternal      = errors.New("internal error")
)

// classified attaches a taxonomy kind to an error without altering its
// message: Error() returns exactly the formatted text, while errors.Is
// matches both the kind and any error wrapped into the message with %w.
type classified struct {
	kind  error
	cause error
	msg   string
}

func (e *classified) Error() string { return e.msg }

func (e *classified) Unwrap() []error { return []error{e.kind, e.cause} }

// Errorf builds a classified error: the message is exactly
// fmt.Sprintf(format, args...) (with %w operands preserved in the
// unwrap chain), and errors.Is(err, kind) reports true.
func Errorf(kind error, format string, args ...any) error {
	cause := fmt.Errorf(format, args...)
	return &classified{kind: kind, cause: cause, msg: cause.Error()}
}

// Classify re-labels an existing error with a taxonomy kind, keeping
// its message and unwrap chain intact. Classifying nil returns nil.
func Classify(kind error, err error) error {
	if err == nil {
		return nil
	}
	return &classified{kind: kind, cause: err, msg: err.Error()}
}
