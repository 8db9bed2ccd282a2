package registry

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// deadlineSlack is how far past its Timeout a discoverer may return.
const deadlineSlack = 50 * time.Millisecond

// deadlineAlgos are the discoverers held to their deadline.
var deadlineAlgos = []string{"md", "dd", "ned", "cd", "fastdc"}

// keyLike is the adversarial shape of the similarity branch: a unique
// ~35-character string per row, so no two values share a class, beside
// two low-cardinality columns.
func keyLike(rows int) *relation.Relation {
	r := relation.New("key-like", relation.NewSchema(
		relation.Attribute{Name: "grp", Kind: relation.KindInt},
		relation.Attribute{Name: "key", Kind: relation.KindString},
		relation.Attribute{Name: "cat", Kind: relation.KindString},
	))
	for i := 0; i < rows; i++ {
		key := fmt.Sprintf("customer-%06d-%s", i*7919%1000003, strings.Repeat(string(rune('a'+i%26)), 20))
		if err := r.Append([]relation.Value{relation.Int(i % 5), relation.String(key), relation.String([]string{"x", "y", "z"}[i%3])}); err != nil {
			panic(err)
		}
	}
	return r
}

// TestDeadlineConformance runs each discoverer of deadlineAlgos through
// the registry, at workers 1 and 2, under 20 ms and 100 ms deadlines. Each
// run must return within deadlineSlack of its deadline (not checked under
// -race), leak no goroutine, and emit a partial output that is a line
// prefix of the complete one. The 3,000-row hotels shape joins with
// DEPTREE_BENCH_LARGE.
func TestDeadlineConformance(t *testing.T) {
	type shape struct {
		name string
		r    *relation.Relation
	}
	shapes := []shape{{"key-like-800", keyLike(800)}}
	if raceEnabled {
		shapes = []shape{{"key-like-200", keyLike(200)}}
	}
	if os.Getenv("DEPTREE_BENCH_LARGE") != "" {
		shapes = append(shapes, shape{"hotels-3000", gen.Hotels(gen.HotelConfig{Rows: 3000, Seed: 7, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.1})})
	}
	for _, shape := range shapes {
		for _, algo := range deadlineAlgos {
			a, ok := Lookup(algo)
			if !ok {
				t.Fatalf("%s is not registered", algo)
			}
			complete := a.Run(context.Background(), shape.r, RunOptions{Workers: 2})
			if complete.Partial {
				t.Fatalf("%s on %s: unbudgeted run is partial (%s)", algo, shape.name, complete.Reason)
			}
			for _, workers := range []int{1, 2} {
				for _, timeout := range []time.Duration{20 * time.Millisecond, 100 * time.Millisecond} {
					before := runtime.NumGoroutine()
					start := time.Now()
					out := a.Run(context.Background(), shape.r, RunOptions{Workers: workers, Budget: engine.Budget{Timeout: timeout}})
					elapsed := time.Since(start)
					where := fmt.Sprintf("%s on %s, workers %d, deadline %v", algo, shape.name, workers, timeout)
					if !raceEnabled && elapsed > timeout+deadlineSlack {
						t.Errorf("%s: returned after %v", where, elapsed)
					}
					if out.Partial && !isPrefix(out.Lines, complete.Lines) {
						t.Errorf("%s: partial output\n%s\nis not a line prefix of the complete output\n%s",
							where, strings.Join(out.Lines, "\n"), strings.Join(complete.Lines, "\n"))
					}
					if !out.Partial && strings.Join(out.Lines, "\n") != strings.Join(complete.Lines, "\n") {
						t.Errorf("%s: a complete run under the deadline differs from the unbudgeted run", where)
					}
					requireGoroutinesSettle(t, where, before)
				}
			}
		}
	}
}

// isPrefix reports whether part is a line prefix of full.
func isPrefix(part, full []string) bool {
	return len(part) <= len(full) && strings.Join(part, "\n") == strings.Join(full[:len(part)], "\n")
}

// requireGoroutinesSettle fails the test when the goroutine count does
// not come back to before within a second: a pool worker outlived its run.
func requireGoroutinesSettle(t *testing.T, where string, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines before, %d after", where, before, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
