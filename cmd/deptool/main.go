// Command deptool is the command-line interface to the deptree library:
// it regenerates the paper's tables and figures, profiles CSV data with
// the discovery algorithms, validates declared dependencies, repairs
// violations and deduplicates records.
//
// Usage:
//
//	deptool report (table2|table3|tree|pubs|timeline|fig3|dot|verify)
//	deptool discover -in data.csv [-algo name] [-maxerr ε] [-workers N]
//	deptool validate -in data.csv -fd "lhs1,lhs2->rhs" [-workers N] [-timeout d] [-max-tasks n]
//	deptool repair   -in data.csv -fd "lhs->rhs" [-out repaired.csv] [-workers N] [-timeout d] [-max-tasks n]
//	deptool gen      -rows N [-errors ε] [-variety v] [-dups d] [-seed s] [-out hotels.csv]
//	deptool profile  -in data.csv
//	deptool serve    [-addr :8080] [-jobs-dir dir] ...
//	deptool job      (submit|status|wait|cancel|list) -addr url ...
//
// Every budgeted command (discover, validate, repair, profile) also takes
// the observability flags -metrics-addr (serve expvar, pprof and
// Prometheus text exposition over HTTP for the run's duration) and
// -trace-out (write the run's span events as JSONL). Observation never
// changes command output.
//
// All input CSVs are read with string columns unless a column parses
// entirely as numeric.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"deptree/internal/core"
	"deptree/internal/deps/fd"
	"deptree/internal/discovery/cfddisc"
	"deptree/internal/discovery/cords"
	"deptree/internal/discovery/fastdc"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/server"
)

// errPartial is returned by commands whose discovery run was truncated by
// a -timeout/-max-tasks budget: the printed results are a valid partial
// answer (marked PARTIAL on stdout) and the process exits 2, so scripts
// can tell "complete" (0), "partial" (2) and "failed" (1) apart.
var errPartial = errors.New("partial result (budget exhausted)")

// obsFlags carries the observability flags shared by every budgeted
// command: -metrics-addr serves the run's metrics over HTTP, -trace-out
// exports its span events.
type obsFlags struct {
	metricsAddr *string
	traceOut    *string
}

func addObsFlags(fs *flag.FlagSet) obsFlags {
	return obsFlags{
		metricsAddr: fs.String("metrics-addr", "", "serve expvar (/debug/vars), pprof (/debug/pprof/) and Prometheus text (/metrics) on this address for the run's duration"),
		traceOut:    fs.String("trace-out", "", "write the run's span events as JSONL to this file"),
	}
}

// expvarOnce guards the process-wide expvar publication: expvar.Publish
// panics on duplicate names, and tests invoke commands repeatedly in one
// process.
var expvarOnce sync.Once

// metricsAddrBound records the metrics listener's resolved address (the
// kernel picks the port when -metrics-addr ends in ":0"); tests read it.
var metricsAddrBound string

// start creates the run's registry, brings up the metrics server when
// requested, and returns a finish func that writes the trace file and
// shuts the server down. The registry feeds the discoverers regardless of
// the flags, so a trace/metrics request never changes the executed path —
// only whether the collected data is exported.
//
// The listener is not fire-and-forget: finish drains it through
// http.Server.Shutdown and waits for the serve goroutine to exit, so a
// deptool run (including one interrupted by SIGTERM through rootCtx)
// never leaks the listener or its goroutine.
func (o obsFlags) start() (*obs.Registry, func() error, error) {
	reg := obs.New()
	var srv *http.Server
	var serveDone chan error
	if *o.metricsAddr != "" {
		expvarOnce.Do(func() {
			expvar.Publish("deptree", expvar.Func(func() any { return reg.Snapshot() }))
		})
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
		ln, err := net.Listen("tcp", *o.metricsAddr)
		if err != nil {
			return nil, nil, err
		}
		metricsAddrBound = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", ln.Addr())
		srv = &http.Server{Handler: mux}
		serveDone = make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
	}
	finish := func() error {
		if srv != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := srv.Shutdown(sctx); err != nil {
				srv.Close()
			}
			cancel()
			<-serveDone
		}
		if *o.traceOut == "" {
			return nil
		}
		f, err := os.Create(*o.traceOut)
		if err != nil {
			return err
		}
		if err := reg.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return reg, finish, nil
}

// finishObs runs the observability teardown, preserving the command's own
// error (including errPartial, which drives the exit code).
func finishObs(finish func() error, runErr error) error {
	if err := finish(); err != nil && runErr == nil {
		return err
	}
	return runErr
}

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
  deptool discover -in data.csv [-algo name] [-maxerr e] [-workers N] [-timeout d] [-max-tasks n]
                   [-sample-rows k] [-sample-seed s]
                   (algos: `+strings.Join(server.Algorithms(), "|")+`)
  deptool stream   -in data.csv [-algo name] [-batch-rows N] [-workers N] [-timeout d] [-max-tasks n] [-q]
                   (replay the CSV as append batches through incremental discovery;
                    algos: tane|fastfd|od|lexod; -in - reads stdin)
  deptool validate -in data.csv -fd "lhs1,lhs2->rhs" [-workers N] [-timeout d] [-max-tasks n]
  deptool repair   -in data.csv -fd "lhs->rhs" [-out repaired.csv] [-workers N] [-timeout d] [-max-tasks n]
  deptool gen      -rows N [-errors e] [-variety v] [-dups d] [-seed s] [-out file]
  deptool profile  -in data.csv [-workers N] [-timeout d] [-max-tasks n] [-max-cache-mb m] [-v]
  deptool serve    [-addr :8080] [-workers N] [-max-concurrency n] [-queue n] [-timeout d] [-max-timeout d]
                   [-max-tasks n] [-max-input-mb m] [-max-rows n] [-drain-timeout d]
                   [-jobs-dir dir] [-job-runners n] [-job-queue n] [-job-max-attempts n]
                   [-wal-quarantine]
  deptool job      (submit|status|wait|cancel|list) [-addr url] [-id jobID] ...
                   submit: -in data.csv [-kind discover|validate|repair] [-algo name]
                   [-fds specs] [-fd spec] [-maxerr e] [-sample-rows k] [-sample-seed s]
                   [-idempotency-key k] [-wait]
  deptool fsck     [-kind jobs|stream|auto] [-repair] [-compact] [-max-record-mb m] [-q] path.wal
                   (offline WAL verify/repair/compact; exit 0 clean, 2 problems, 1 error)

discover, validate, repair and profile also take:
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

// addInputLimitFlag registers the shared -max-input-mb bound for
// commands that read a CSV.
func addInputLimitFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("max-input-mb", 0, "reject input CSVs larger than this many MiB (0 = unlimited)")
}

// loadCSV reads a CSV under the byte bound, inferring numeric columns
// through the same relation.ReadCSVAuto path the server's request
// decoder uses, so a file and the same bytes POSTed to `deptool serve`
// type identically.
func loadCSV(path string, maxInputMB int64) (*relation.Relation, error) {
	lim := relation.Limits{MaxBytes: maxInputMB << 20}
	if lim.MaxBytes > 0 {
		if st, err := os.Stat(path); err == nil && st.Size() > lim.MaxBytes {
			return nil, &relation.ErrInputTooLarge{What: "bytes", Limit: lim.MaxBytes, Got: st.Size()}
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return relation.ReadCSVAuto(path, data, lim)
}

func cmdDiscover(args []string) error {
	fs := flag.NewFlagSet("discover", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV")
	algo := fs.String("algo", "tane", strings.Join(server.Algorithms(), "|"))
	maxErr := fs.Float64("maxerr", 0, "g3 budget for approximate FDs (tane)")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel workers (1 = sequential); output is identical either way")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = unlimited); on expiry the completed prefix is printed with a PARTIAL marker and the exit code is 2")
	maxTasks := fs.Int64("max-tasks", 0, "task-execution budget (0 = unlimited); truncation is deterministic for any -workers value")
	sampleRows := fs.Int("sample-rows", 0, "sample-then-verify: mine candidates on this many rows, verify each on the full relation (0 = full-relation discovery; tane, fastfd, od, lexod only)")
	sampleSeed := fs.Int64("sample-seed", 1, "seed for the deterministic -sample-rows row sample")
	maxInputMB := addInputLimitFlag(fs)
	ob := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in required")
	}
	r, err := loadCSV(*in, *maxInputMB)
	if err != nil {
		return err
	}
	reg, obsDone, err := ob.start()
	if err != nil {
		return err
	}
	out, err := server.RunDiscover(rootCtx, r, *algo, server.RunParams{
		Workers:    *workers,
		Budget:     engine.Budget{Timeout: *timeout, MaxTasks: *maxTasks},
		MaxErr:     *maxErr,
		SampleRows: *sampleRows,
		SampleSeed: *sampleSeed,
		Obs:        reg,
	})
	if err != nil {
		finishObs(obsDone, nil)
		return err
	}
	fmt.Print(out.Text())
	var runErr error
	if out.Partial {
		runErr = errPartial
	}
	return finishObs(obsDone, runErr)
}

// parseFD parses "a,b->c" against a schema.
func parseFD(schema *relation.Schema, spec string) (fd.FD, error) {
	return server.ParseFD(schema, spec)
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV")
	fdSpec := fs.String("fd", "", "FDs as lhs1,lhs2->rhs (repeatable via semicolons)")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel workers (1 = sequential); output is identical either way")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = unlimited); on expiry the checked prefix is printed with a PARTIAL marker and the exit code is 2")
	maxTasks := fs.Int64("max-tasks", 0, "rule-check budget (0 = unlimited); truncation is deterministic for any -workers value")
	maxInputMB := addInputLimitFlag(fs)
	ob := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *fdSpec == "" {
		return fmt.Errorf("-in and -fd required")
	}
	r, err := loadCSV(*in, *maxInputMB)
	if err != nil {
		return err
	}
	fds, err := server.ParseFDList(r.Schema(), *fdSpec)
	if err != nil {
		return err
	}
	reg, obsDone, err := ob.start()
	if err != nil {
		return err
	}
	out := server.RunValidate(rootCtx, r, fds, server.RunParams{
		Workers: *workers,
		Budget:  engine.Budget{Timeout: *timeout, MaxTasks: *maxTasks},
		Obs:     reg,
	})
	fmt.Print(out.Text())
	var runErr error
	if out.Partial {
		runErr = errPartial
	}
	return finishObs(obsDone, runErr)
}

func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV")
	out := fs.String("out", "", "output CSV (default stdout)")
	fdSpec := fs.String("fd", "", "FD as lhs->rhs")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel workers (1 = sequential); output is identical either way")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = unlimited); on expiry the partially repaired instance is written with a PARTIAL marker and the exit code is 2")
	maxTasks := fs.Int64("max-tasks", 0, "class-repair budget (0 = unlimited); truncation is deterministic for any -workers value")
	maxInputMB := addInputLimitFlag(fs)
	ob := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *fdSpec == "" {
		return fmt.Errorf("-in and -fd required")
	}
	r, err := loadCSV(*in, *maxInputMB)
	if err != nil {
		return err
	}
	f, err := parseFD(r.Schema(), *fdSpec)
	if err != nil {
		return err
	}
	reg, obsDone, err := ob.start()
	if err != nil {
		return err
	}
	res, err := server.RunRepair(rootCtx, r, []fd.FD{f}, server.RunParams{
		Workers: *workers,
		Budget:  engine.Budget{Timeout: *timeout, MaxTasks: *maxTasks},
		Obs:     reg,
	})
	if err != nil {
		finishObs(obsDone, nil)
		return err
	}
	for _, ch := range res.Changes {
		fmt.Fprintln(os.Stderr, "  ", ch)
	}
	fmt.Fprintf(os.Stderr, "%d cell(s) changed\n", len(res.Changes))
	dst := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		dst = file
	}
	if _, err := dst.WriteString(res.CSV); err != nil {
		return err
	}
	var runErr error
	if res.Partial {
		fmt.Printf("PARTIAL: %s\n", res.Reason)
		runErr = errPartial
	}
	return finishObs(obsDone, runErr)
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
	dst := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		dst = file
	}
	return relation.WriteCSV(r, dst)
}

// cmdProfile runs the §1.4.2 profiling pipeline on a CSV: exact and
// approximate FDs, soft FDs, constant CFDs, order dependencies and denial
// constraints, with a per-section summary.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel workers (1 = sequential)")
	timeout := fs.Duration("timeout", 0, "per-section wall-clock budget (0 = unlimited); exhausted sections report partial counts and the exit code is 2")
	maxTasks := fs.Int64("max-tasks", 0, "per-section task budget (0 = unlimited)")
	maxCacheMB := fs.Int64("max-cache-mb", 0, "partition-cache byte bound in MiB (0 = count-bounded only)")
	verbose := fs.Bool("v", false, "print partition-cache statistics and the observability registry snapshot")
	maxInputMB := addInputLimitFlag(fs)
	ob := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in required")
	}
	r, err := loadCSV(*in, *maxInputMB)
	if err != nil {
		return err
	}
	reg, obsDone, err := ob.start()
	if err != nil {
		return err
	}
	ctx := rootCtx
	// Each section below runs under its own copy of this budget.
	x := engine.Exec{Workers: *workers, Obs: reg,
		Budget: engine.Budget{Timeout: *timeout, MaxTasks: *maxTasks, MaxCacheBytes: *maxCacheMB << 20}}
	// Each budgeted section appends its stop reason here; any entry turns
	// the whole profile into a PARTIAL exit.
	var partials []string
	note := func(section string, partial bool, reason string) string {
		if !partial {
			return ""
		}
		partials = append(partials, section+": "+reason)
		return fmt.Sprintf("  [partial: %s]", reason)
	}
	// The TANE passes share one partition cache: the approximate pass
	// reuses every partition the exact pass already built.
	cache := engine.NewPartitionCache(r, x.Budget.MaxCacheBytes)
	cache.SetObserver(reg)
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
	fmt.Printf("exact minimal FDs (LHS <= 2): %d%s\n", len(exact), note("exact FDs", exactRes.Partial, exactRes.Reason))
	for i, f := range exact {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(exact)-10)
			break
		}
		fmt.Printf("  %s\n", f)
	}

	approxRes := tane.DiscoverContext(ctx, r, tane.Options{MaxError: 0.05, MaxLHS: 1, Exec: x, Cache: cache})
	fmt.Printf("\napproximate FDs (g3 <= 0.05, LHS = 1): %d%s\n", len(approxRes.FDs), note("approximate FDs", approxRes.Partial, approxRes.Reason))

	soft := cords.DiscoverContext(ctx, r, cords.Options{MinStrength: 0.9, Exec: x})
	flagged := 0
	for _, c := range soft.Correlations {
		if c.Correlated {
			flagged++
		}
	}
	fmt.Printf("soft FDs (CORDS, s >= 0.9): %d; chi-square-correlated pairs: %d%s\n", len(soft.SFDs), flagged, note("CORDS", soft.Partial, soft.Reason))

	minSupport := max(2, r.Rows()/20)
	constRes := cfddisc.DiscoverContext(ctx, r, cfddisc.Options{MinSupport: minSupport, MaxLHS: 1, Exec: x})
	fmt.Printf("constant CFDs (support >= %d): %d%s\n", minSupport, len(constRes.CFDs), note("constant CFDs", constRes.Partial, constRes.Reason))

	odRes := oddisc.DiscoverContext(ctx, r, oddisc.Options{Exec: x})
	ods := oddisc.Minimal(odRes.ODs)
	fmt.Printf("minimal order dependencies: %d%s\n", len(ods), note("order dependencies", odRes.Partial, odRes.Reason))
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
	fmt.Printf("denial constraints (FASTDC on %d rows, <= 2 predicates): %d%s\n", sample.Rows(), len(dcRes.DCs), note("FASTDC", dcRes.Partial, dcRes.Reason))

	if *verbose {
		st := cache.Stats()
		fmt.Printf("\npartition cache: %d hits, %d misses, %d evictions, %d entries\n",
			st.Hits, st.Misses, st.Evictions, st.Entries)
		// st.Bytes sums partition.MemBytes, which is exact for the CSR
		// layout: struct header plus the two int32 backing arrays.
		fmt.Printf("partition resident bytes (exact): %d across %d partitions; %d products computed\n",
			st.Bytes, st.Entries, reg.Counter("partition.products_total").Value())
		fmt.Printf("\nobservability registry:\n")
		reg.Snapshot().Format(os.Stdout)
	}
	var runErr error
	if len(partials) > 0 {
		fmt.Printf("PARTIAL: %s\n", strings.Join(partials, "; "))
		runErr = errPartial
	}
	return finishObs(obsDone, runErr)
}
