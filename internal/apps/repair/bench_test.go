package repair

import (
	"context"
	"fmt"
	"testing"

	"deptree/internal/deps/fd"
	"deptree/internal/engine"
	"deptree/internal/gen"
)

// BenchmarkFDRepair is the repair layer bench: majority-vote FD repair of
// address → region on dirty hotels, one worker.
func BenchmarkFDRepair(b *testing.B) {
	for _, rows := range []int{1000, 5000} {
		r := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 5, ErrorRate: 0.05, VarietyRate: 0.1, DuplicateRate: 0.1})
		f := fd.Must(r.Schema(), []string{"address"}, []string{"region"})
		opts := Options{Exec: engine.Exec{Workers: 1}}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := FDRepairContext(context.Background(), r, []fd.FD{f}, opts); len(res.Changes) == 0 {
					b.Fatal("no changes: the bench input has nothing to repair")
				}
			}
		})
	}
}
