package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"deptree/internal/engine"
	"deptree/internal/relation"
	"deptree/internal/server"
	"deptree/internal/stream"
)

// cmdStream replays a CSV through the incremental streaming engine in
// fixed-size append batches, printing the ruleset diff per batch and the
// final ruleset — the CLI face of internal/stream. The output after the
// last complete batch is byte-identical to `deptool discover` over the
// same file; the point of the command is watching rules demote and
// re-enter as batches land, and measuring per-batch latency instead of
// from-scratch latency.
func cmdStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV (\"-\" = stdin)")
	algo := fs.String("algo", "tane", strings.Join(streamAlgos(), "|"))
	batchRows := fs.Int("batch-rows", 1000, "rows per append batch")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel workers (1 = sequential); output is identical either way")
	timeout := fs.Duration("timeout", 0, "wall-clock budget per batch sync (0 = unlimited); an expired sync commits a deterministic prefix and the next batch resumes it")
	maxTasks := fs.Int64("max-tasks", 0, "task budget per batch sync (0 = unlimited)")
	quiet := fs.Bool("q", false, "suppress per-batch diffs; print only the final ruleset")
	maxInputMB := addInputLimitFlag(fs)
	ob := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in required")
	}
	if *batchRows <= 0 {
		return fmt.Errorf("-batch-rows must be positive")
	}
	if !stream.Supported(*algo) {
		return fmt.Errorf("algorithm %q has no incremental engine (want one of %s)", *algo, strings.Join(streamAlgos(), "|"))
	}
	r, err := loadStreamCSV(*in, *maxInputMB)
	if err != nil {
		return err
	}
	reg, obsDone, err := ob.start()
	if err != nil {
		return err
	}
	sess, err := stream.NewSession(*algo, r.Schema(), stream.Options{
		Workers: *workers,
		Budget:  engine.Budget{Timeout: *timeout, MaxTasks: *maxTasks},
		Obs:     reg,
	})
	if err != nil {
		finishObs(obsDone, nil)
		return err
	}
	n := r.Rows()
	var last engine.Stop
	for lo := 0; lo == 0 || lo < n; lo += *batchRows {
		hi := lo + *batchRows
		if hi > n {
			hi = n
		}
		rows := make([][]relation.Value, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, r.Tuple(i))
		}
		start := time.Now()
		res, err := sess.AppendBatch(rootCtx, rows)
		if err != nil {
			finishObs(obsDone, nil)
			return err
		}
		last = res.Stop
		if !*quiet {
			fmt.Printf("batch %d: +%d rows, total %d, %d rules, %s, fp %s\n",
				res.Seq, res.Rows, res.TotalRows, len(res.Lines),
				time.Since(start).Round(time.Microsecond), res.Fingerprint[:12])
			for _, l := range res.Added {
				fmt.Printf("  + %s\n", l)
			}
			for _, l := range res.Removed {
				fmt.Printf("  - %s\n", l)
			}
			if res.Partial {
				fmt.Printf("  partial (%s); next batch resumes\n", res.Reason)
			}
		}
		if rootCtx.Err() != nil {
			break
		}
	}
	for _, l := range sess.Lines() {
		fmt.Println(l)
	}
	var runErr error
	if last.Partial {
		fmt.Printf("PARTIAL: %s\n", last.Reason)
		runErr = errPartial
	}
	return finishObs(obsDone, runErr)
}

// streamAlgos lists the algorithms with incremental engines, in the
// registry's order.
func streamAlgos() []string {
	var out []string
	for _, a := range server.Algorithms() {
		if stream.Supported(a) {
			out = append(out, a)
		}
	}
	return out
}

// loadStreamCSV is loadCSV plus the stdin convention ("-").
func loadStreamCSV(path string, maxInputMB int64) (*relation.Relation, error) {
	if path != "-" {
		return loadCSV(path, maxInputMB)
	}
	lim := relation.Limits{MaxBytes: maxInputMB << 20}
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, err
	}
	return relation.ReadCSVAuto("stdin", data, lim)
}
