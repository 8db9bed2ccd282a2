package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
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
