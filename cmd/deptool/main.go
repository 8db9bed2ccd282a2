// Command deptool is the command-line interface to the deptree library:
// it regenerates the paper's tables and figures, profiles CSV data with
// the discovery algorithms, validates declared dependencies, repairs
// violations and deduplicates records.
//
// Usage:
//
//	deptool report (table2|table3|tree|pubs|timeline|fig3|dot|verify)
//	deptool discover -in data.csv [-algo name] [-maxerr ε]
//	deptool stream   -in data.csv [-algo name] [-batch-rows N]
//	deptool validate -in data.csv -fd "lhs1,lhs2->rhs"
//	deptool repair   -in data.csv -fd "lhs->rhs" [-out repaired.csv]
//	deptool gen      -rows N [-errors ε] [-variety v] [-dups d] [-seed s] [-out hotels.csv]
//	deptool profile  -in data.csv
//	deptool serve    [-addr :8080] [-jobs-dir dir] ...
//	deptool job      (submit|status|wait|cancel|list) -addr url ...
//
// The local budgeted commands (discover, stream, validate, repair,
// profile) share one set of flags, declared by runFrame: -in ("-" reads
// stdin), -workers, the budget flags -timeout and -max-tasks, the input
// bound -max-input-mb, and the observability flags -metrics-addr (serve
// expvar, pprof and Prometheus text exposition over HTTP for the run's
// duration) and -trace-out (write the run's span events as JSONL).
// Observation never changes command output.
//
// All input CSVs are read with string columns unless a column parses
// entirely as numeric.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"deptree/internal/core"
	"deptree/internal/deps/fd"
	"deptree/internal/discovery/cfddisc"
	"deptree/internal/discovery/cords"
	"deptree/internal/discovery/fastdc"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
	"deptree/internal/server"
	"deptree/internal/stream"
)

// rootCtx is the process-lifetime context every budgeted command runs
// under. main wires SIGINT/SIGTERM cancellation into it, so a signal
// mid-run degrades the command to its deterministic PARTIAL result (and
// `deptool serve` to a graceful drain) instead of killing the process
// with work half-done. Tests leave it as Background.
var rootCtx = context.Background()

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rootCtx = ctx
	var err error
	switch os.Args[1] {
	case "report":
		err = cmdReport(os.Args[2:])
	case "discover":
		err = cmdDiscover(os.Args[2:])
	case "stream":
		err = cmdStream(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "job":
		err = cmdJob(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if errors.Is(err, errPartial) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deptool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  deptool report (table2|table3|tree|pubs|timeline|fig3|dot|verify)
  deptool discover -in data.csv [-algo name] [-maxerr e] [-sample-rows k] [-sample-seed s]
                   (algos: `+strings.Join(server.Algorithms(), "|")+`)
  deptool stream   -in data.csv [-algo name] [-batch-rows N] [-q]
                   (replay the CSV as append batches through incremental discovery;
                    algos: `+strings.Join(stream.Algorithms(), "|")+`)
  deptool validate -in data.csv -fd "lhs1,lhs2->rhs"
  deptool repair   -in data.csv -fd "lhs->rhs" [-out repaired.csv]
  deptool gen      -rows N [-errors e] [-variety v] [-dups d] [-seed s] [-out file]
  deptool profile  -in data.csv [-max-cache-mb m] [-v]
  deptool serve    [-addr :8080] [-workers N] [-max-concurrency n] [-queue n] [-timeout d] [-max-timeout d]
                   [-max-tasks n] [-max-input-mb m] [-max-rows n] [-drain-timeout d]
                   [-jobs-dir dir] [-job-runners n] [-job-queue n] [-job-max-attempts n]
                   [-wal-quarantine]
  deptool job      (submit|status|wait|cancel|list) [-addr url] [-id jobID] ...
                   submit: -in data.csv [-kind discover|validate|repair] [-algo name]
                   [-fds specs] [-fd spec] [-maxerr e] [-sample-rows k] [-sample-seed s]
                   [-workers N] [-timeout d] [-max-tasks n] [-idempotency-key k] [-wait]
  deptool fsck     [-kind jobs|stream|auto] [-repair] [-compact] [-max-record-mb m] [-q] path.wal
                   (offline WAL verify/repair/compact; exit 0 clean, 2 problems, 1 error)

discover, stream, validate, repair and profile also take:
  -in -                     read the input CSV from stdin
  -workers N                parallel workers (default: CPU count); output is
                            identical for every N
  -timeout d                wall-clock budget (0 = unlimited; profile: per
                            section, stream: per batch sync)
  -max-tasks n              task budget, scoped like -timeout (0 = unlimited);
                            the cut is the same for every -workers value
  -max-input-mb m           reject input CSVs larger than m MiB
  -metrics-addr host:port   serve expvar (/debug/vars), pprof (/debug/pprof/)
                            and Prometheus text (/metrics) during the run
  -trace-out file.jsonl     write the run's span events as JSONL

exit codes: 0 complete, 2 partial result (budget exhausted; PARTIAL marker
on stdout), 1 error. SIGTERM/SIGINT degrade a running command to its
PARTIAL result (serve: graceful drain) instead of killing it mid-run.`)
}

func cmdReport(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("report needs exactly one artifact name")
	}
	switch args[0] {
	case "table2":
		fmt.Print(core.RenderTable2())
	case "table3":
		fmt.Print(core.RenderTable3())
	case "tree":
		fmt.Print(core.RenderTree())
	case "pubs":
		fmt.Print(core.RenderImpact())
	case "timeline":
		fmt.Print(core.RenderTimeline())
	case "fig3":
		fmt.Print(core.RenderDifficulty())
	case "dot":
		fmt.Print(core.DOT())
	case "verify":
		fails := core.VerifyAll(42)
		if len(fails) == 0 {
			fmt.Printf("all %d family-tree edges verified\n", len(core.FamilyTree()))
			return nil
		}
		for edge, err := range fails {
			fmt.Printf("FAIL %s: %v\n", edge, err)
		}
		return fmt.Errorf("%d edge(s) failed", len(fails))
	default:
		return fmt.Errorf("unknown artifact %q", args[0])
	}
	return nil
}

func cmdDiscover(args []string) error {
	fs := flag.NewFlagSet("discover", flag.ContinueOnError)
	f := newRunFrame(fs)
	algo := fs.String("algo", "tane", strings.Join(server.Algorithms(), "|"))
	maxErr := fs.Float64("maxerr", 0, "g3 budget for approximate FDs (tane)")
	sampleRows := fs.Int("sample-rows", 0, "sample-then-verify: mine candidates on this many rows, verify each on the full relation (0 = full-relation discovery; tane, fastfd, od, lexod only)")
	sampleSeed := fs.Int64("sample-seed", 1, "seed for the deterministic -sample-rows row sample")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return f.run(func(r *relation.Relation, x engine.Exec) (engine.Stop, error) {
		p := runParams(x)
		p.MaxErr, p.SampleRows, p.SampleSeed = *maxErr, *sampleRows, *sampleSeed
		out, err := server.RunDiscover(rootCtx, r, *algo, p)
		if err != nil {
			return engine.Stop{}, err
		}
		fmt.Print(out.Text())
		return out.Stop, nil
	})
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	f := newRunFrame(fs)
	fdSpec := fs.String("fd", "", "FDs as lhs1,lhs2->rhs (repeatable via semicolons)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f.in == "" || *fdSpec == "" {
		return fmt.Errorf("-in and -fd required")
	}
	return f.run(func(r *relation.Relation, x engine.Exec) (engine.Stop, error) {
		fds, err := server.ParseFDList(r.Schema(), *fdSpec)
		if err != nil {
			return engine.Stop{}, err
		}
		out := server.RunValidate(rootCtx, r, fds, runParams(x))
		fmt.Print(out.Text())
		return out.Stop, nil
	})
}

func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ContinueOnError)
	f := newRunFrame(fs)
	out := fs.String("out", "", "output CSV (default stdout)")
	fdSpec := fs.String("fd", "", "FD as lhs->rhs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f.in == "" || *fdSpec == "" {
		return fmt.Errorf("-in and -fd required")
	}
	return f.run(func(r *relation.Relation, x engine.Exec) (engine.Stop, error) {
		rule, err := server.ParseFD(r.Schema(), *fdSpec)
		if err != nil {
			return engine.Stop{}, err
		}
		res, _ := server.RunRepair(rootCtx, r, []fd.FD{rule}, runParams(x)) // its error is always nil
		for _, ch := range res.Changes {
			fmt.Fprintln(os.Stderr, "  ", ch)
		}
		fmt.Fprintf(os.Stderr, "%d cell(s) changed\n", len(res.Changes))
		if err := writeOut(*out, func(w io.Writer) error {
			_, err := io.WriteString(w, res.CSV)
			return err
		}); err != nil {
			return engine.Stop{}, err
		}
		if res.Partial {
			fmt.Printf("PARTIAL: %s\n", res.Reason)
		}
		return res.Stop, nil
	})
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	rows := fs.Int("rows", 100, "tuples to generate")
	errRate := fs.Float64("errors", 0, "veracity error rate")
	variety := fs.Float64("variety", 0, "format-variety rate")
	dups := fs.Float64("dups", 0, "near-duplicate rate")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "output CSV (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := gen.Hotels(gen.HotelConfig{
		Rows: *rows, Seed: *seed,
		ErrorRate: *errRate, VarietyRate: *variety, DuplicateRate: *dups,
	})
	return writeOut(*out, func(w io.Writer) error { return relation.WriteCSV(r, w) })
}

// cmdProfile runs the §1.4.2 profiling pipeline on a CSV: exact and
// approximate FDs, soft FDs, constant CFDs, order dependencies and denial
// constraints, with a per-section summary.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	f := newRunFrame(fs)
	maxCacheMB := fs.Int64("max-cache-mb", 0, "partition-cache byte bound in MiB (0 = count-bounded only)")
	verbose := fs.Bool("v", false, "print partition-cache statistics and the observability registry snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return f.run(func(r *relation.Relation, x engine.Exec) (engine.Stop, error) {
		// Each section below runs under its own copy of this budget.
		x.Budget.MaxCacheBytes = *maxCacheMB << 20
		return profile(rootCtx, r, x, *verbose), nil
	})
}

// profile prints the profile of r and reports it partial when any
// budgeted section was cut, with the sections' reasons joined.
func profile(ctx context.Context, r *relation.Relation, x engine.Exec, verbose bool) engine.Stop {
	// Each budgeted section appends its stop reason here; any entry turns
	// the whole profile into a PARTIAL exit.
	var partials []string
	note := func(section string, stop engine.Stop) string {
		if !stop.Partial {
			return ""
		}
		partials = append(partials, section+": "+stop.Reason)
		return fmt.Sprintf("  [partial: %s]", stop.Reason)
	}
	// The TANE passes share one partition cache: the approximate pass
	// reuses every partition the exact pass already built.
	cache := engine.NewPartitionCache(r, x.Budget.MaxCacheBytes)
	cache.SetObserver(x.Obs)
	fmt.Printf("%s: %d tuples x %d attributes\n\n", r.Name(), r.Rows(), r.Cols())

	fmt.Println("column statistics:")
	for _, st := range relation.Stats(r, 1) {
		marker := ""
		if st.Uniqueness() == 1 && st.Rows > 1 {
			marker = "  [key candidate]"
		}
		fmt.Printf("  %s%s\n", st, marker)
	}
	fmt.Println()

	exactRes := tane.DiscoverContext(ctx, r, tane.Options{MaxLHS: 2, Exec: x, Cache: cache})
	exact := exactRes.FDs
	fmt.Printf("exact minimal FDs (LHS <= 2): %d%s\n", len(exact), note("exact FDs", exactRes.Stop))
	for i, f := range exact {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(exact)-10)
			break
		}
		fmt.Printf("  %s\n", f)
	}

	approxRes := tane.DiscoverContext(ctx, r, tane.Options{MaxError: 0.05, MaxLHS: 1, Exec: x, Cache: cache})
	fmt.Printf("\napproximate FDs (g3 <= 0.05, LHS = 1): %d%s\n", len(approxRes.FDs), note("approximate FDs", approxRes.Stop))

	soft := cords.DiscoverContext(ctx, r, cords.Options{MinStrength: 0.9, Exec: x})
	flagged := 0
	for _, c := range soft.Correlations {
		if c.Correlated {
			flagged++
		}
	}
	fmt.Printf("soft FDs (CORDS, s >= 0.9): %d; chi-square-correlated pairs: %d%s\n", len(soft.SFDs), flagged, note("CORDS", soft.Stop))

	minSupport := max(2, r.Rows()/20)
	constRes := cfddisc.DiscoverContext(ctx, r, cfddisc.Options{MinSupport: minSupport, MaxLHS: 1, Exec: x})
	fmt.Printf("constant CFDs (support >= %d): %d%s\n", minSupport, len(constRes.CFDs), note("constant CFDs", constRes.Stop))

	odRes := oddisc.DiscoverContext(ctx, r, oddisc.Options{Exec: x})
	ods := oddisc.Minimal(odRes.ODs)
	fmt.Printf("minimal order dependencies: %d%s\n", len(ods), note("order dependencies", odRes.Stop))
	for i, o := range ods {
		if i == 6 {
			fmt.Printf("  ... and %d more\n", len(ods)-6)
			break
		}
		fmt.Printf("  %s\n", o)
	}

	sample := r
	if r.Rows() > 80 {
		sample = r.Select(func(row int) bool { return row < 80 })
	}
	dcRes := fastdc.DiscoverContext(ctx, sample, fastdc.Options{MaxPredicates: 2, Exec: x})
	fmt.Printf("denial constraints (FASTDC on %d rows, <= 2 predicates): %d%s\n", sample.Rows(), len(dcRes.DCs), note("FASTDC", dcRes.Stop))

	if verbose {
		st := cache.Stats()
		fmt.Printf("\npartition cache: %d hits, %d misses, %d evictions, %d entries\n",
			st.Hits, st.Misses, st.Evictions, st.Entries)
		// st.Bytes sums partition.MemBytes, which is exact for the CSR
		// layout: struct header plus the two int32 backing arrays.
		fmt.Printf("partition resident bytes (exact): %d across %d partitions; %d products computed\n",
			st.Bytes, st.Entries, x.Obs.Counter("partition.products_total").Value())
		fmt.Printf("\nobservability registry:\n")
		x.Obs.Snapshot().Format(os.Stdout)
	}
	if len(partials) == 0 {
		return engine.Stop{}
	}
	stop := engine.Stop{Partial: true, Reason: strings.Join(partials, "; ")}
	fmt.Printf("PARTIAL: %s\n", stop.Reason)
	return stop
}
