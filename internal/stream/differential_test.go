package stream_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"deptree/internal/discovery/registry"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
	"deptree/internal/stream"
)

// feedAndCheck appends rows to both the session and the from-scratch
// shadow relation, runs the registry from scratch and asserts the
// incremental ruleset is byte-identical.
func feedAndCheck(t *testing.T, sess *stream.Session, shadow *relation.Relation,
	algo string, workers int, rows [][]relation.Value, label string) {
	t.Helper()
	res, err := sess.AppendBatch(context.Background(), rows)
	if err != nil {
		t.Fatalf("%s: AppendBatch: %v", label, err)
	}
	if res.Partial {
		t.Fatalf("%s: unexpected partial sync (%s)", label, res.Reason)
	}
	for _, row := range rows {
		if err := shadow.Append(row); err != nil {
			t.Fatalf("%s: shadow append: %v", label, err)
		}
	}
	a, ok := registry.Lookup(algo)
	if !ok {
		t.Fatalf("unknown algo %q", algo)
	}
	out := a.Run(context.Background(), shadow, registry.RunOptions{Workers: workers})
	if out.Partial {
		t.Fatalf("%s: from-scratch run partial (%s)", label, out.Reason)
	}
	if !reflect.DeepEqual(res.Lines, out.Lines) {
		t.Fatalf("%s: incremental != from-scratch\nincremental: %q\nscratch:     %q",
			label, res.Lines, out.Lines)
	}
}

func tuples(r *relation.Relation) [][]relation.Value {
	rows := make([][]relation.Value, r.Rows())
	for i := range rows {
		rows[i] = r.Tuple(i)
	}
	return rows
}

// TestIncrementalMatchesScratch is the tentpole differential case: for
// every incremental discoverer, at workers 1 and 4, the session ruleset
// after every batch — including the drift batch that demotes rules and
// forces re-discovery — equals a from-scratch registry run over the
// same rows.
func TestIncrementalMatchesScratch(t *testing.T) {
	for _, algo := range []string{"tane", "fastfd", "od", "lexod"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", algo, workers), func(t *testing.T) {
				t.Parallel()
				plan := gen.AppendBatches(gen.AppendConfig{
					BaseRows: 120, BatchRows: 40, Batches: 5, DriftAt: 3, Seed: 7,
				})
				sess, err := stream.NewSession(algo, plan.Base.Schema(), stream.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				shadow := relation.New("shadow", plan.Base.Schema())
				feedAndCheck(t, sess, shadow, algo, workers, tuples(plan.Base), "base")
				for i, b := range plan.Batches {
					feedAndCheck(t, sess, shadow, algo, workers, b, fmt.Sprintf("batch %d", i+1))
				}
			})
		}
	}
}

// TestIncrementalWideShape runs the wide drift plan (a demotion wave
// across every tail OD) for the OD discoverers.
func TestIncrementalWideShape(t *testing.T) {
	for _, algo := range []string{"od", "tane"} {
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			plan := gen.AppendBatches(gen.AppendConfig{
				Wide: true, Ord: 3, Tail: 4, BaseRows: 150, BatchRows: 50, Batches: 4, DriftAt: 2, Seed: 11,
			})
			sess, err := stream.NewSession(algo, plan.Base.Schema(), stream.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			shadow := relation.New("shadow", plan.Base.Schema())
			feedAndCheck(t, sess, shadow, algo, 2, tuples(plan.Base), "base")
			for i, b := range plan.Batches {
				feedAndCheck(t, sess, shadow, algo, 2, b, fmt.Sprintf("batch %d", i+1))
			}
		})
	}
}

// TestIncrementalEmptyStart feeds a session created over an empty
// relation batch by batch — the engines must re-seed from the 0-row
// init and still match from scratch.
func TestIncrementalEmptyStart(t *testing.T) {
	for _, algo := range []string{"tane", "fastfd", "od", "lexod"} {
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			plan := gen.AppendBatches(gen.AppendConfig{
				BaseRows: 1, BatchRows: 30, Batches: 3, DriftAt: 2, Seed: 3,
			})
			sess, err := stream.NewSession(algo, plan.Base.Schema(), stream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			shadow := relation.New("shadow", plan.Base.Schema())
			// Empty first batch: engines initialize over zero rows.
			feedAndCheck(t, sess, shadow, algo, 0, nil, "empty")
			feedAndCheck(t, sess, shadow, algo, 0, tuples(plan.Base), "base")
			for i, b := range plan.Batches {
				feedAndCheck(t, sess, shadow, algo, 0, b, fmt.Sprintf("batch %d", i+1))
			}
		})
	}
}

// TestSessionResumableAfterBudgetStop cancels/starves a sync mid-batch
// and asserts the session resumes to the exact from-scratch ruleset —
// the Partial/prefix contract for streams.
func TestSessionResumableAfterBudgetStop(t *testing.T) {
	for _, algo := range []string{"tane", "fastfd", "od", "lexod"} {
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			plan := gen.AppendBatches(gen.AppendConfig{
				BaseRows: 120, BatchRows: 40, Batches: 3, DriftAt: 2, Seed: 7,
			})
			sess, err := stream.NewSession(algo, plan.Base.Schema(), stream.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			shadow := relation.New("shadow", plan.Base.Schema())
			feedAndCheck(t, sess, shadow, algo, 2, tuples(plan.Base), "base")

			// Starve the drift batch: MaxTasks 1 cannot complete the
			// re-validation fan-out, so the sync must report partial
			// (or, for engines that need no pool work, complete).
			sess.SetRun(2, engine.Budget{MaxTasks: 1})
			res, err := sess.AppendBatch(context.Background(), plan.Batches[0])
			if err != nil {
				t.Fatal(err)
			}
			res2, err := sess.AppendBatch(context.Background(), plan.Batches[1])
			if err != nil {
				t.Fatal(err)
			}
			_ = res
			_ = res2

			// A cancelled context must also leave the session coherent.
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := sess.Revalidate(cctx); err != nil {
				t.Fatal(err)
			}

			// Resume with a workable budget: the retry must converge to
			// the from-scratch ruleset over all ingested rows.
			sess.SetRun(2, engine.Budget{})
			final, err := sess.Revalidate(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if final.Partial {
				t.Fatalf("resumed sync still partial (%s)", final.Reason)
			}
			for _, b := range plan.Batches[:2] {
				for _, row := range b {
					if err := shadow.Append(row); err != nil {
						t.Fatal(err)
					}
				}
			}
			a, _ := registry.Lookup(algo)
			out := a.Run(context.Background(), shadow, registry.RunOptions{Workers: 2})
			if !reflect.DeepEqual(final.Lines, out.Lines) {
				t.Fatalf("resumed ruleset != from-scratch\nincremental: %q\nscratch:     %q",
					final.Lines, out.Lines)
			}
			// And the stream keeps working after recovery.
			feedAndCheck(t, sess, shadow, algo, 2, plan.Batches[2], "post-recovery batch")
		})
	}
}

// TestSharedLHSDemotion is the regression for a vacuous tail check:
// when one sync's re-discovery commits several FDs over the SAME
// multi-attribute LHS, the next sync's demotion loop creates the LHS
// refiner while checking the first of them — and the second must not
// take the tails-only path against that just-built refiner, whose
// Touched() is empty until its first AppendRefine. The third batch
// below violates only ab→d; a vacuous check would keep it forever.
func TestSharedLHSDemotion(t *testing.T) {
	schema := relation.Strings("t", "a", "b", "c", "d")
	row := func(vs ...string) []relation.Value {
		out := make([]relation.Value, len(vs))
		for i, v := range vs {
			out[i] = relation.String(v)
		}
		return out
	}
	for _, algo := range []string{"tane", "fastfd"} {
		t.Run(algo, func(t *testing.T) {
			sess, err := stream.NewSession(algo, schema, stream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			shadow := relation.New("shadow", schema)
			// a is a key: a→b, a→c, a→d are all minimal and held.
			feedAndCheck(t, sess, shadow, algo, 0, [][]relation.Value{
				row("t1", "a1", "b1", "c1", "d1"),
				row("t2", "a2", "b1", "c2", "d2"),
				row("t3", "a3", "b2", "c3", "d3"),
			}, "base")
			// a repeats with new b/c/d: every a→X demotes, and
			// re-discovery commits ab→c and ab→d in the same sync —
			// one shared LHS {a,b}, no refiner yet.
			feedAndCheck(t, sess, shadow, algo, 0, [][]relation.Value{
				row("t4", "a1", "b2", "c9", "d9"),
			}, "demote-a")
			// (a1,b1) recurs agreeing on c but not d: ab→c survives,
			// ab→d must demote on the very sync that creates the
			// shared refiner.
			feedAndCheck(t, sess, shadow, algo, 0, [][]relation.Value{
				row("t5", "a1", "b1", "c1", "d7"),
			}, "violate-abd")
		})
	}
}

// TestSeparatorPayloadsMatchScratch feeds cells that spell one another
// once value keys are joined with a separator byte: ("x\x1fs:y", "z")
// and ("x", "y\x1fs:z") are distinct (A, B) tuples, so the held
// A,B -> C must survive the batch that brings the second one with a
// different C.
func TestSeparatorPayloadsMatchScratch(t *testing.T) {
	schema := relation.Strings("A", "B", "C")
	row := func(vs ...string) []relation.Value {
		out := make([]relation.Value, len(vs))
		for i, v := range vs {
			out[i] = relation.String(v)
		}
		return out
	}
	for _, algo := range []string{"tane", "fastfd"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", algo, workers), func(t *testing.T) {
				sess, err := stream.NewSession(algo, schema, stream.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				shadow := relation.New("shadow", schema)
				// Neither A nor B determines C; A,B is a key.
				feedAndCheck(t, sess, shadow, algo, workers, [][]relation.Value{
					row("x\x1fs:y", "z", "c1"),
					row("x\x1fs:y", "w", "c3"),
					row("p", "z", "c4"),
				}, "base")
				feedAndCheck(t, sess, shadow, algo, workers, [][]relation.Value{
					row("x", "y\x1fs:z", "c2"),
				}, "colliding")
				feedAndCheck(t, sess, shadow, algo, workers, [][]relation.Value{
					row("x", "y\x1fs:z", "c2"),
					row("x\x1fs:y", "z", "c1"),
				}, "repeats")
			})
		}
	}
}

// TestRegistryLockstep pins the registry's Incremental flags to the
// stream package's engine set.
func TestRegistryLockstep(t *testing.T) {
	for _, name := range registry.Names() {
		a, _ := registry.Lookup(name)
		if a.Incremental != stream.Supported(name) {
			t.Errorf("algo %s: registry Incremental=%v, stream.Supported=%v",
				name, a.Incremental, stream.Supported(name))
		}
	}
	if stream.Supported("nope") {
		t.Error("Supported(nope) = true")
	}
}

// TestDiffLines checks the per-batch ruleset diff.
func TestDiffLines(t *testing.T) {
	plan := gen.AppendBatches(gen.AppendConfig{
		BaseRows: 100, BatchRows: 30, Batches: 3, DriftAt: 2, Seed: 5,
	})
	sess, err := stream.NewSession("od", plan.Base.Schema(), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.AppendBatch(context.Background(), tuples(plan.Base))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) == 0 || len(res.Removed) != 0 {
		t.Fatalf("base batch diff: added %q removed %q", res.Added, res.Removed)
	}
	var removed []string
	for _, b := range plan.Batches {
		r, err := sess.AppendBatch(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		removed = append(removed, r.Removed...)
	}
	if len(removed) == 0 {
		t.Fatal("drift batches removed no ODs")
	}
}
