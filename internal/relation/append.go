// Appender: batch ingestion for streaming discovery. Batches are
// all-or-nothing (pre-validated before the first cell lands), bounded by
// the same Limits/int32 ceiling as the CSV readers, and identified by a
// chained content fingerprint: each batch hashes only its own canonical
// bytes, chained onto the previous fingerprint, so the identity of a
// million-row session advances in O(batch) instead of O(relation).
package relation

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Appender ingests row batches into one Relation and maintains the
// chained SHA-256 fingerprint
//
//	fp₀ = SHA-256(schema bytes)
//	fpᵢ = SHA-256(fpᵢ₋₁ ∥ canonical batch bytes)
//
// over the append history. Two sessions that ingest the same rows in the
// same batch boundaries share a fingerprint; the fingerprint is the
// content-addressed key streaming callers (the jobs result cache, the
// partition cache upgrade path) use to name the relation's current
// state. An Appender is not safe for concurrent use.
type Appender struct {
	r   *Relation
	lim Limits
	fp  [sha256.Size]byte
	// seq counts accepted batches (rejected batches leave both the
	// relation and the fingerprint untouched).
	seq int
}

// NewAppender wraps an existing relation. The seed fingerprint covers
// the schema and — when the relation already has rows — its current
// contents as one implicit initial batch, so a pre-loaded relation and
// an empty one fed the same rows end up with different histories but
// equal row data and consistent per-session identities.
func NewAppender(r *Relation, lim Limits) *Appender {
	a := &Appender{r: r, lim: lim}
	h := sha256.New()
	for i := 0; i < r.Cols(); i++ {
		at := r.Schema().Attr(i)
		fmt.Fprintf(h, "%s\x1f%d\x1e", at.Name, at.Kind)
	}
	h.Sum(a.fp[:0])
	if r.Rows() > 0 {
		rows := make([][]Value, r.Rows())
		for i := range rows {
			rows[i] = r.Tuple(i)
		}
		a.fp = chainFingerprint(a.fp, rows)
	}
	return a
}

// Relation returns the underlying relation.
func (a *Appender) Relation() *Relation { return a.r }

// Rows returns the current row count.
func (a *Appender) Rows() int { return a.r.Rows() }

// Batches returns the number of accepted batches (excluding the seed).
func (a *Appender) Batches() int { return a.seq }

// Fingerprint returns the hex chained fingerprint of the current state.
func (a *Appender) Fingerprint() string { return hex.EncodeToString(a.fp[:]) }

// AppendBatch ingests one batch atomically and returns the new
// fingerprint. The whole batch is validated first — row widths, column
// kinds, the Limits row bound and the int32 representation ceiling — and
// a rejected batch leaves the relation, the fingerprint and the batch
// counter exactly as they were. An empty batch is a no-op that returns
// the current fingerprint.
func (a *Appender) AppendBatch(rows [][]Value) (string, error) {
	if len(rows) == 0 {
		return a.Fingerprint(), nil
	}
	total := int64(a.r.Rows()) + int64(len(rows))
	if maxRows := a.lim.effectiveMaxRows(); total > int64(maxRows) {
		return "", fmt.Errorf("relation: append batch: %w",
			&ErrInputTooLarge{What: "rows", Limit: int64(maxRows), Got: total})
	}
	schema := a.r.Schema()
	for i, row := range rows {
		if len(row) != schema.Len() {
			return "", fmt.Errorf("relation: batch row %d width %d != schema width %d",
				i, len(row), schema.Len())
		}
		for c, v := range row {
			// Bound field text as the CSV readers do: a string cell holds
			// its field's text (CRLF folding only shortens it), while a
			// number or a null carries no text to bound.
			if a.lim.MaxFieldBytes > 0 && v.kind == KindString && len(v.str) > a.lim.MaxFieldBytes {
				return "", fmt.Errorf("relation: batch row %d: %w", i,
					&ErrInputTooLarge{What: "field bytes", Limit: int64(a.lim.MaxFieldBytes), Got: int64(len(v.str))})
			}
			want := schema.Attr(c).Kind
			if !v.IsNull() && v.Kind() != want && !(v.IsNumeric() && (want == KindFloat || want == KindInt)) {
				return "", fmt.Errorf("relation: batch row %d: column %s expects %v, got %v (%v)",
					i, schema.Attr(c).Name, want, v.Kind(), v)
			}
		}
	}
	for _, row := range rows {
		if err := a.r.Append(row); err != nil {
			// Unreachable after pre-validation; surface rather than hide.
			return "", fmt.Errorf("relation: append batch: %w", err)
		}
	}
	a.fp = chainFingerprint(a.fp, rows)
	a.seq++
	return a.Fingerprint(), nil
}

// chainFingerprint hashes one batch's canonical bytes onto the previous
// fingerprint. Cells are encoded with Value.Key — the same canonical
// form the dictionary coders group by, so surface formatting differences
// that cannot affect discovery output cannot split fingerprints either —
// with \x1f between cells and \x1e after each row.
func chainFingerprint(prev [sha256.Size]byte, rows [][]Value) [sha256.Size]byte {
	h := sha256.New()
	h.Write(prev[:])
	for _, row := range rows {
		for c, v := range row {
			if c > 0 {
				h.Write([]byte{0x1f})
			}
			h.Write([]byte(v.Key()))
		}
		h.Write([]byte{0x1e})
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
