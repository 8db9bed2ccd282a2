package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deptree/internal/jobs"
	"deptree/internal/stream"
	"deptree/internal/wal"
)

// cmdFsck is the offline WAL doctor: verify, repair and compact the
// framed logs `deptool serve -jobs-dir` writes, without a server
// attached. Verification is read-only and per-record; -repair performs
// exactly the recovery the server performs at boot (torn-tail
// truncation) plus the opt-in one (quarantining a corrupt suffix to a
// sidecar); -compact rewrites the log to its
// minimal equivalent. Exit codes: 0 clean, 2 problems found (or left),
// 1 operational error.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	kindFlag := fs.String("kind", "auto", `log kind: "jobs", "stream" or "auto" (sniff the first record, then the filename)`)
	repair := fs.Bool("repair", false, "repair in place: truncate a torn tail, quarantine a corrupt suffix to <path>.quarantine")
	compact := fs.Bool("compact", false, "rewrite the log minimally (jobs: folded state snapshot; stream: verified records); runs after -repair")
	maxRecMB := fs.Int64("max-record-mb", 0, "per-record size limit in MiB (0 = the WAL default, 1024)")
	quiet := fs.Bool("q", false, "summary only, no per-record verdicts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("fsck: exactly one WAL path required")
	}
	path := fs.Arg(0)
	maxRec := *maxRecMB << 20
	out := os.Stdout

	switch *kindFlag {
	case "auto", "jobs", "stream":
	default:
		return fmt.Errorf("fsck: unknown -kind %q (want jobs, stream or auto)", *kindFlag)
	}

	if *repair {
		if err := fsckRepair(out, path, maxRec); err != nil {
			return err
		}
	}

	rep, err := fsckVerify(out, path, *kindFlag, maxRec, *quiet)
	if err != nil {
		return err
	}

	if *compact {
		if rep.problems() > 0 {
			fmt.Fprintf(out, "%s: not compacting a damaged log (re-run with -repair)\n", path)
		} else if err := fsckCompact(out, path, rep.kind, maxRec); err != nil {
			return err
		}
	}

	if rep.problems() > 0 {
		// Findings are already on stdout; errPartial only drives exit 2.
		return fmt.Errorf("fsck: %d problem(s) in %s: %w", rep.problems(), path, errPartial)
	}
	return nil
}

// fsckReport is one verification pass's findings.
type fsckReport struct {
	kind       string // resolved log kind: "jobs" or "stream"
	records    int
	verified   int64 // bytes of verified prefix (header included)
	total      int64 // file size
	torn       bool
	corrupt    error // typed *wal.ErrCorruptRecord / *wal.ErrRecordTooLarge
	decodeErrs int   // frames whose payload the kind's codec rejects
}

func (r *fsckReport) problems() int {
	n := r.decodeErrs
	if r.torn {
		n++
	}
	if r.corrupt != nil {
		n++
	}
	return n
}

// fsckVerify runs the read-only pass: frame checksums via wal.Scan,
// then each payload through the resolved kind's codec, printing a
// verdict per record and a summary.
func fsckVerify(w io.Writer, path, kind string, maxRec int64, quiet bool) (*fsckReport, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	rep := &fsckReport{kind: kind, total: st.Size()}

	idx := 0
	verified, torn, scanErr := wal.Scan(nil, path, maxRec, func(payload []byte, offset int64) error {
		idx++
		if rep.kind == "auto" {
			rep.kind = sniffKind(payload, path)
		}
		desc, derr := decodeRecord(rep.kind, payload)
		if derr != nil {
			rep.decodeErrs++
			fmt.Fprintf(w, "record %d @ %d len %d UNDECODABLE: %v\n", idx, offset, len(payload), derr)
		} else if !quiet {
			fmt.Fprintf(w, "record %d @ %d len %d ok (%s)\n", idx, offset, len(payload), desc)
		}
		rep.records++
		return nil
	})
	if rep.kind == "auto" {
		rep.kind = sniffKind(nil, path)
	}
	rep.verified, rep.torn = verified, torn

	switch {
	case scanErr == nil:
	case isTypedDamage(scanErr):
		rep.corrupt = scanErr
	default:
		// Not damage fsck can classify (unreadable file, unsupported
		// version): an operational error.
		return nil, fmt.Errorf("fsck: %w", scanErr)
	}

	fmt.Fprintf(w, "%s: %s log, %d record(s), %d/%d bytes verified\n",
		path, rep.kind, rep.records, rep.verified, rep.total)
	if rep.torn {
		fmt.Fprintf(w, "  torn tail: %d trailing byte(s) from an interrupted append (repairable: -repair truncates)\n",
			rep.total-rep.verified)
	}
	if rep.corrupt != nil {
		fmt.Fprintf(w, "  CORRUPT: %v\n", rep.corrupt)
		fmt.Fprintf(w, "  the %d record(s) before the damage are intact; -repair quarantines the rest to %s.quarantine\n",
			rep.records, path)
	}
	if rep.decodeErrs > 0 {
		fmt.Fprintf(w, "  %d record(s) with valid checksums but payloads the %s codec rejects (writer bug, not disk damage)\n",
			rep.decodeErrs, rep.kind)
	}
	if rep.problems() == 0 {
		fmt.Fprintf(w, "  clean\n")
	}
	return rep, nil
}

// isTypedDamage reports whether err is damage fsck knows how to present
// and -repair knows how to handle, as opposed to an operational error.
func isTypedDamage(err error) bool {
	var corrupt *wal.ErrCorruptRecord
	var tooBig *wal.ErrRecordTooLarge
	return errors.As(err, &corrupt) || errors.As(err, &tooBig)
}

// sniffKind resolves -kind auto: a record with an "op" field is a
// stream record, one with a "type" field a jobs record; with no record
// to look at, the filename decides.
func sniffKind(payload []byte, path string) string {
	if payload != nil {
		var probe map[string]json.RawMessage
		if json.Unmarshal(payload, &probe) == nil {
			if _, ok := probe["op"]; ok {
				return "stream"
			}
			if _, ok := probe["type"]; ok {
				return "jobs"
			}
		}
	}
	if strings.Contains(strings.ToLower(path), "stream") {
		return "stream"
	}
	return "jobs"
}

// decodeRecord runs one payload through the kind's codec and returns a
// short human description, or an error when the codec rejects it.
func decodeRecord(kind string, payload []byte) (string, error) {
	switch kind {
	case "stream":
		var rec stream.WALRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return "", err
		}
		switch rec.Op {
		case "create":
			return fmt.Sprintf("stream create %s algo=%s cols=%d", rec.Session, rec.Algo, len(rec.Names)), nil
		case "batch":
			return fmt.Sprintf("stream batch %s seq=%d rows=%d", rec.Session, rec.Seq, len(rec.Cells)), nil
		default:
			return "", fmt.Errorf("unknown stream op %q", rec.Op)
		}
	default: // jobs
		var rec jobs.Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return "", err
		}
		switch rec.Type {
		case jobs.RecSubmit, jobs.RecStart, jobs.RecRetry, jobs.RecResult, jobs.RecCancel:
			if rec.ID == "" {
				return "", fmt.Errorf("jobs %s record without an id", rec.Type)
			}
			return fmt.Sprintf("jobs %s %s", rec.Type, rec.ID), nil
		default:
			return "", fmt.Errorf("unknown jobs record type %q", rec.Type)
		}
	}
}

// fsckRepair opens the log read-write in quarantine mode and replays
// it, which is the full recovery suite: torn-tail truncation and
// corrupt-suffix quarantining.
func fsckRepair(w io.Writer, path string, maxRec int64) error {
	l, err := wal.Open(path, wal.Options{MaxRecordBytes: maxRec, Quarantine: true})
	if err != nil {
		return fmt.Errorf("fsck: repair: %w", err)
	}
	defer l.Close()
	if err := l.Replay(nil); err != nil {
		var tooBig *wal.ErrRecordTooLarge
		if errors.As(err, &tooBig) {
			return fmt.Errorf("fsck: repair: %w (re-run with a larger -max-record-mb to keep the record, or accept quarantining it)", err)
		}
		return fmt.Errorf("fsck: repair: %w", err)
	}
	if n := l.TornTail(); n > 0 {
		fmt.Fprintf(w, "%s: truncated torn tail\n", path)
	}
	if n := l.Quarantined(); n > 0 {
		fmt.Fprintf(w, "%s: quarantined corrupt suffix to %s.quarantine\n", path, path)
	}
	if l.TornTail() == 0 && l.Quarantined() == 0 {
		fmt.Fprintf(w, "%s: nothing to repair\n", path)
	}
	return nil
}

// fsckCompact rewrites a clean log minimally and atomically. A jobs log
// folds to the per-job state snapshot (jobs.FoldRecords); a stream log
// has no redundant records, so compaction just rewrites the verified
// frames (reclaiming nothing unless a quarantine or truncation left
// slack in the file).
func fsckCompact(w io.Writer, path, kind string, maxRec int64) error {
	l, err := wal.Open(path, wal.Options{MaxRecordBytes: maxRec})
	if err != nil {
		return fmt.Errorf("fsck: compact: %w", err)
	}
	defer l.Close()
	var payloads [][]byte
	if err := l.Replay(func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil {
		return fmt.Errorf("fsck: compact: %w", err)
	}
	recsBefore, sizeBefore := l.Records(), l.Size()
	if kind == "jobs" {
		recs := make([]jobs.Record, 0, len(payloads))
		for i, p := range payloads {
			var rec jobs.Record
			if err := json.Unmarshal(p, &rec); err != nil {
				return fmt.Errorf("fsck: compact: record %d: %w", i+1, err)
			}
			recs = append(recs, rec)
		}
		folded := jobs.FoldRecords(recs)
		payloads = payloads[:0]
		for i, rec := range folded {
			p, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("fsck: compact: folded record %d: %w", i+1, err)
			}
			payloads = append(payloads, p)
		}
	}
	if err := l.ReplaceWith(payloads); err != nil {
		return fmt.Errorf("fsck: compact: %w", err)
	}
	fmt.Fprintf(w, "%s: compacted %d -> %d record(s), %d -> %d bytes\n",
		path, recsBefore, len(payloads), sizeBefore, l.Size())
	return nil
}
