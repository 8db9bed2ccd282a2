package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"deptree/internal/obs"
)

// ErrPoolClosed is returned by Submit/ForEach when the pool has been
// Closed. Before the closed guard existed, a post-Close Submit panicked
// on the closed task channel; returning this error instead is part of the
// pool's failure model.
var ErrPoolClosed = errors.New("engine: pool closed")

// ErrMaxTasks is the failure recorded when a Reserve would exceed the
// run's MaxTasks budget. Discovery runs stopped by it report a
// deterministic partial result.
var ErrMaxTasks = errors.New("engine: task budget exhausted")

// Budget bounds a discovery run. The zero value is unlimited, so existing
// call sites that never set a budget keep their behavior.
type Budget struct {
	// Timeout is the wall-clock deadline for the whole run (0 = none).
	// When it fires the pool context reports context.DeadlineExceeded,
	// queued tasks are skipped, and the run returns a partial result.
	Timeout time.Duration
	// MaxTasks bounds the total pool tasks the run may execute (0 =
	// unlimited). It is enforced all-or-nothing per fan-out (Reserve), so
	// where it trips is independent of the worker count.
	MaxTasks int64
	// MaxCacheBytes bounds the resident bytes of the run's partition
	// cache (0 = unlimited); see NewPartitionCache. Exceeding it
	// evicts, it never fails the run.
	MaxCacheBytes int64
}

// Unlimited reports whether the budget imposes no limit at all.
func (b Budget) Unlimited() bool {
	return b.Timeout == 0 && b.MaxTasks == 0 && b.MaxCacheBytes == 0
}

// Stop is how a budgeted run ended. Every in-process run result embeds
// it: a run cut by its deadline, its task budget, cancellation or a
// worker panic reports Partial with the Reason token, and its output is
// then a deterministic prefix of the complete run's output. The zero
// Stop is a complete run.
type Stop struct {
	// Partial marks a truncated run.
	Partial bool
	// Reason is the stable stop token ("deadline", "max-tasks",
	// "cancelled", "panic: ..."); empty when complete.
	Reason string
}

// StopAt turns the error that cut a run into the run's Stop (the zero
// Stop for a nil error) and records it on span; see Stop.On.
func StopAt(span *obs.Span, err error) Stop {
	if err == nil {
		return Stop{}
	}
	return Stop{Partial: true, Reason: Reason(err)}.On(span)
}

// On records a partial Stop's token as the "stop" attribute of span and
// returns s; a complete Stop leaves span as it is. A run that passes on
// the Stop of a run nested inside it marks its own span with it, so the
// last run span to end always names why the run stopped.
func (s Stop) On(span *obs.Span) Stop {
	if s.Partial {
		span.SetAttr("stop", s.Reason)
	}
	return s
}

// Reason renders the error that stopped a run as a short, stable token
// for partial-result reporting: "deadline", "max-tasks", "cancelled", or
// "panic: <value>". Unknown errors render as their Error string; nil
// renders empty.
func Reason(err error) string {
	var pe *PanicError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrMaxTasks):
		return "max-tasks"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.As(err, &pe):
		return fmt.Sprintf("panic: %v", pe.Value)
	default:
		return err.Error()
	}
}

// IsPanicReason reports whether a Reason token records a recovered task
// panic. The serving layer treats those as engine faults (they feed its
// circuit breaker), unlike budget truncations.
func IsPanicReason(reason string) bool { return strings.HasPrefix(reason, "panic: ") }

// IsDeadlineReason reports whether a Reason token records an expired
// wall-clock budget.
func IsDeadlineReason(reason string) bool { return reason == "deadline" }
