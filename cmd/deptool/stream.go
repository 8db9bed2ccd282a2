package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"deptree/internal/engine"
	"deptree/internal/relation"
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
	f := newRunFrame(fs)
	algo := fs.String("algo", "tane", strings.Join(stream.Algorithms(), "|"))
	batchRows := fs.Int("batch-rows", 1000, "rows per append batch")
	quiet := fs.Bool("q", false, "suppress per-batch diffs; print only the final ruleset")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batchRows <= 0 {
		return fmt.Errorf("-batch-rows must be positive")
	}
	if !stream.Supported(*algo) {
		return fmt.Errorf("algorithm %q has no incremental engine (want one of %s)", *algo, strings.Join(stream.Algorithms(), "|"))
	}
	return f.run(func(r *relation.Relation, x engine.Exec) (engine.Stop, error) {
		sess, err := stream.NewSession(*algo, r.Schema(), stream.Options{Workers: x.Workers, Budget: x.Budget, Obs: x.Obs})
		if err != nil {
			return engine.Stop{}, err
		}
		n := r.Rows()
		var last engine.Stop
		for lo := 0; lo == 0 || lo < n; lo += *batchRows {
			hi := min(lo+*batchRows, n)
			rows := make([][]relation.Value, 0, hi-lo)
			for i := lo; i < hi; i++ {
				rows = append(rows, r.Tuple(i))
			}
			start := time.Now()
			res, err := sess.AppendBatch(rootCtx, rows)
			if err != nil {
				return engine.Stop{}, err
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
		if last.Partial {
			fmt.Printf("PARTIAL: %s\n", last.Reason)
		}
		return last, nil
	})
}
