package engine_test

import (
	"context"
	"fmt"
	"testing"

	"deptree/internal/engine"
	"deptree/internal/obs"
)

// BenchmarkPoolObserved measures the per-task cost of the observability
// hooks: the same fan-out with a nil registry (the no-op default) and
// with a live one. The instrumented path resolves its counter handles at
// pool construction, so the delta should stay within a few atomic ops
// plus two clock reads per task.
func BenchmarkPoolObserved(b *testing.B) {
	for _, workers := range []int{1, 4} {
		for _, observed := range []bool{false, true} {
			label := "plain"
			var reg *obs.Registry
			if observed {
				label = "observed"
				reg = obs.New()
			}
			b.Run(fmt.Sprintf("%s/workers=%d", label, workers), func(b *testing.B) {
				pool := engine.Exec{Workers: workers, Obs: reg}.Pool(context.Background())
				defer pool.Close()
				sink := make([]int, 256)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pool.ForEach(len(sink), func(j int) { sink[j] = j * j })
				}
			})
		}
	}
}
