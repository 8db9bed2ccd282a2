// The fault-injection suite behind `make chaos`: injected panics, stalls
// and mid-run cancellations in any registered discoverer must produce a
// clean error or a Partial result — never a process crash, goroutine
// leak, or deadlock — and budget-truncated runs must report the same
// completed prefix for every worker count.
//
// The suite is table-driven over the discoverer registry: every
// algorithm the server exposes is swept automatically, so enrolling a
// new discoverer in the registry enrolls it in every chaos scenario
// below with no test edits.
package chaos

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"deptree/internal/discovery/registry"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// hotel returns the workhorse chaos relation: 9 columns (5 numeric), big
// enough that every discoverer fans out dozens of tasks.
func hotel(rows int) *relation.Relation {
	return gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 3, ErrorRate: 0.1, VarietyRate: 0.2})
}

// requireNoGoroutineLeak runs f and then waits for the goroutine count to
// settle back to its starting level, failing the test if pool workers (or
// anything else f started) outlive it.
func requireNoGoroutineLeak(t *testing.T, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after settle window", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runOutcome is one discoverer's canonical rendering plus its truncation
// state.
type runOutcome struct {
	name    string
	out     string
	partial bool
	reason  string
}

// runOne invokes a single registered discoverer through the registry
// path (the exact dispatch the server and CLI use). fastdc's
// pair-quadratic evidence build gets a row-trimmed input, matching the
// differential harness.
func runOne(ctx context.Context, a registry.Algo, r *relation.Relation, o registry.RunOptions) runOutcome {
	if a.Name == "fastdc" && r.Rows() > 25 {
		r = r.Select(func(row int) bool { return row < 25 })
	}
	res := a.Run(ctx, r, o)
	return runOutcome{a.Name, strings.Join(res.Lines, "\n"), res.Partial, res.Reason}
}

// runAll invokes every registered discoverer under ctx with the given
// options; with SampleRows > 0, only the sampling-capable ones.
func runAll(ctx context.Context, r *relation.Relation, o registry.RunOptions) []runOutcome {
	out := make([]runOutcome, 0, len(registry.All()))
	for _, a := range registry.All() {
		if o.SampleRows == 0 || a.Sampling {
			out = append(out, runOne(ctx, a, r, o))
		}
	}
	return out
}

// TestInjectedPanicPoolIsolation drives a raw pool: a panicking task must
// surface as a task-attributed *engine.PanicError, the pool must stay
// closable without leaking its workers, and post-Close submission must
// return ErrPoolClosed.
func TestInjectedPanicPoolIsolation(t *testing.T) {
	inj, uninstall := Install(Options{PanicEvery: 7})
	defer uninstall()
	requireNoGoroutineLeak(t, func() {
		p := engine.Exec{Workers: 4}.Pool(context.Background())
		err := p.ForEach(200, func(int) {})
		var pe *engine.PanicError
		if err == nil {
			t.Fatal("ForEach swallowed the injected panic")
		}
		if !asPanicError(err, &pe) {
			t.Fatalf("ForEach error = %v, want *engine.PanicError", err)
		}
		if pe.Task < 0 || pe.Task >= 200 {
			t.Fatalf("panic not task-attributed: Task = %d", pe.Task)
		}
		if !strings.Contains(pe.Error(), "chaos: injected panic") {
			t.Fatalf("panic value lost: %v", pe)
		}
		p.Close()
		if err := p.Submit(func() {}); err != engine.ErrPoolClosed {
			t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
		}
	})
	if inj.Panics() == 0 {
		t.Fatal("injector fired no panics")
	}
}

func asPanicError(err error, target **engine.PanicError) bool {
	pe, ok := err.(*engine.PanicError)
	if ok {
		*target = pe
	}
	return ok
}

// TestInjectedPanicAllDiscoverers injects an early panic into every
// pooled task stream: each registered discoverer must come back with a
// clean Partial result whose reason names the panic, leaking nothing.
// Every discoverer fans out at least three tasks on the hotel relation,
// and any three consecutive task starts contain a PanicEvery:3 trigger,
// so no run can complete cleanly.
func TestInjectedPanicAllDiscoverers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		inj, uninstall := Install(Options{PanicEvery: 3})
		requireNoGoroutineLeak(t, func() {
			for _, oc := range runAll(context.Background(), hotel(40), registry.RunOptions{Workers: workers}) {
				if !oc.partial {
					t.Errorf("workers=%d %s: injected panic but run reported complete", workers, oc.name)
					continue
				}
				if !strings.Contains(oc.reason, "panic") {
					t.Errorf("workers=%d %s: partial reason %q does not name the panic", workers, oc.name, oc.reason)
				}
			}
		})
		uninstall()
		if inj.Panics() == 0 {
			t.Fatalf("workers=%d: injector fired no panics", workers)
		}
	}
}

// TestInjectedDelayHonorsDeadline stalls every task and gives the run a
// short wall-clock budget: both the inline (workers=1) and the pooled
// path must stop with a "deadline" partial rather than running the full
// lattice, and must do so promptly.
func TestInjectedDelayHonorsDeadline(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, uninstall := Install(Options{DelayEvery: 1, Delay: 5 * time.Millisecond})
		requireNoGoroutineLeak(t, func() {
			start := time.Now()
			res := tane.DiscoverContext(context.Background(), hotel(60), tane.Options{
				Exec: engine.Exec{Workers: workers, Budget: engine.Budget{Timeout: 50 * time.Millisecond}},
			})
			if !res.Partial {
				t.Errorf("workers=%d: stalled run under 50ms deadline reported complete", workers)
			} else if res.Reason != "deadline" {
				t.Errorf("workers=%d: reason = %q, want deadline", workers, res.Reason)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("workers=%d: deadline stop took %v", workers, elapsed)
			}
		})
		uninstall()
	}
}

// TestInjectedCancelMidRun cancels the pool from inside a task, once per
// registered discoverer with a fresh injector (CancelAfter:2 fires
// within every algorithm's first tasks): each run must degrade to a
// "cancelled" partial, not deadlock waiting on skipped work.
func TestInjectedCancelMidRun(t *testing.T) {
	r := hotel(40)
	for _, workers := range []int{1, 4} {
		for _, a := range registry.All() {
			inj, uninstall := Install(Options{CancelAfter: 2})
			requireNoGoroutineLeak(t, func() {
				oc := runOne(context.Background(), a, r, registry.RunOptions{Workers: workers})
				if !oc.partial {
					t.Errorf("workers=%d %s: cancelled run reported complete", workers, a.Name)
				} else if oc.reason != "cancelled" {
					t.Errorf("workers=%d %s: reason = %q, want cancelled", workers, a.Name, oc.reason)
				}
			})
			uninstall()
			if inj.Cancels() == 0 {
				t.Fatalf("workers=%d %s: injector never fired its cancel", workers, a.Name)
			}
		}
	}
}

// TestExternalContextCancellation covers the caller-side abort: a context
// cancelled mid-run stops every discoverer with a clean partial.
func TestExternalContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing may run, nothing may hang
	requireNoGoroutineLeak(t, func() {
		for _, oc := range runAll(ctx, hotel(40), registry.RunOptions{Workers: 4}) {
			if !oc.partial {
				t.Errorf("%s: run under cancelled context reported complete", oc.name)
			}
			if oc.name == "tane" && oc.out != "" {
				t.Errorf("tane produced output %q under pre-cancelled context", oc.out)
			}
		}
	})
}

// TestPartialPrefixConsistency is the determinism half of the failure
// model: the same MaxTasks budget must truncate every registered
// discoverer at the same deterministic prefix for workers=1 and
// workers=4, and that prefix must be a subset of the full (unbudgeted)
// answer. Sampled mode is one more input: on the sampling-capable
// discoverers, discovery on a 25-row sample and verification on the full
// relation spend one shared MaxTasks budget.
func TestPartialPrefixConsistency(t *testing.T) {
	r := hotel(40)
	full := map[string]string{}
	for _, oc := range runAll(context.Background(), r, registry.RunOptions{Workers: 1}) {
		full[oc.name] = oc.out
	}
	for _, mode := range []struct {
		sampleRows int
		budgets    []int64
	}{
		{0, []int64{10, 40, 120}},
		// Budgets at which sampled tane, fastfd and lexod stop with
		// non-empty verified prefixes.
		{25, []int64{60, 100, 240}},
	} {
		for _, budget := range mode.budgets {
			o := registry.RunOptions{Budget: engine.Budget{MaxTasks: budget}, SampleRows: mode.sampleRows, SampleSeed: 1}
			o.Workers = 1
			seq := runAll(context.Background(), r, o)
			o.Workers = 4
			par := runAll(context.Background(), r, o)
			for i := range seq {
				if seq[i].out != par[i].out || seq[i].partial != par[i].partial || seq[i].reason != par[i].reason {
					t.Errorf("max-tasks=%d sample-rows=%d %s: workers=1 and workers=4 disagree\n--- w1 (partial=%v %s) ---\n%s\n--- w4 (partial=%v %s) ---\n%s",
						budget, mode.sampleRows, seq[i].name, seq[i].partial, seq[i].reason, seq[i].out, par[i].partial, par[i].reason, par[i].out)
				}
				// fastdc partial is a sample-style approximation, not a
				// subset of the full answer (see fastdc.Result); every other
				// discoverer must emit a line-subset of the full run.
				if seq[i].partial && seq[i].name != "fastdc" {
					assertLineSubset(t, seq[i].name, budget, seq[i].out, full[seq[i].name])
				}
			}
		}
	}
}

func assertLineSubset(t *testing.T, name string, budget int64, part, full string) {
	t.Helper()
	have := map[string]bool{}
	for _, line := range strings.Split(full, "\n") {
		have[line] = true
	}
	for _, line := range strings.Split(part, "\n") {
		if line != "" && !have[line] {
			t.Errorf("max-tasks=%d %s: partial line %q not in full result", budget, name, line)
		}
	}
}

// TestChaosStorm is the everything-at-once soak: stalls, periodic panics
// and a deadline together, across repeated runs of all fifteen
// discoverers, with the goroutine count checked once at the end. Any
// crash, deadlock or leak fails the suite.
func TestChaosStorm(t *testing.T) {
	_, uninstall := Install(Options{PanicEvery: 23, DelayEvery: 5, Delay: time.Millisecond})
	defer uninstall()
	requireNoGoroutineLeak(t, func() {
		for i := 0; i < 3; i++ {
			b := engine.Budget{Timeout: 40 * time.Millisecond, MaxTasks: 150}
			for _, oc := range runAll(context.Background(), hotel(50), registry.RunOptions{Workers: 4, Budget: b}) {
				// Any outcome is legal here except a crash; partial runs
				// must carry a reason.
				if oc.partial && oc.reason == "" {
					t.Errorf("storm %s: partial without reason", oc.name)
				}
			}
		}
	})
}
