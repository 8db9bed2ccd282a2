package relation

import (
	"errors"
	"strings"
	"testing"
)

func appendSchema() *Schema {
	return NewSchema(
		Attribute{Name: "a", Kind: KindInt},
		Attribute{Name: "b", Kind: KindString},
	)
}

func row(a int, b string) []Value { return []Value{Int(a), String(b)} }

// TestAppenderFingerprintDeterministic pins the chained fingerprint: a
// function of schema, row content and batch boundaries only.
func TestAppenderFingerprintDeterministic(t *testing.T) {
	mk := func(batches ...[][]Value) string {
		a := NewAppender(New("x", appendSchema()), Limits{})
		fp := a.Fingerprint()
		for _, b := range batches {
			var err error
			fp, err = a.AppendBatch(b)
			if err != nil {
				t.Fatal(err)
			}
		}
		return fp
	}
	b1 := [][]Value{row(1, "p"), row(2, "q")}
	b2 := [][]Value{row(3, "r")}

	if mk(b1, b2) != mk(b1, b2) {
		t.Fatal("same batches, different fingerprints")
	}
	if mk(b1, b2) == mk(b1) {
		t.Fatal("extra batch left the fingerprint unchanged")
	}
	// Batch boundaries are part of the identity: [b1;b2] as one batch is a
	// different history than b1 then b2.
	joined := append(append([][]Value{}, b1...), b2...)
	if mk(joined) == mk(b1, b2) {
		t.Fatal("batch boundaries not reflected in the fingerprint")
	}
	// Content matters: a different row in the same shape diverges.
	if mk([][]Value{row(1, "p"), row(2, "X")}) == mk(b1) {
		t.Fatal("different content, same fingerprint")
	}
}

// TestAppenderPreloadedSeed: wrapping a relation that already has rows
// equals an empty relation fed the same rows as one batch.
func TestAppenderPreloadedSeed(t *testing.T) {
	rows := [][]Value{row(1, "p"), row(2, "q"), row(3, "p")}
	pre := New("pre", appendSchema())
	for _, r := range rows {
		if err := pre.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	a1 := NewAppender(pre, Limits{})

	a2 := NewAppender(New("empty", appendSchema()), Limits{})
	if _, err := a2.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Fatalf("preloaded fingerprint %s != empty+batch %s", a1.Fingerprint(), a2.Fingerprint())
	}
	// And the histories stay in lockstep afterwards.
	next := [][]Value{row(4, "z")}
	fp1, err1 := a1.AppendBatch(next)
	fp2, err2 := a2.AppendBatch(next)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if fp1 != fp2 {
		t.Fatal("fingerprints diverged after identical appends")
	}
}

// TestAppenderAtomicRejection: any invalid row rejects the whole batch
// with relation, fingerprint and batch counter untouched.
func TestAppenderAtomicRejection(t *testing.T) {
	cases := map[string][][]Value{
		"width":       {row(1, "p"), {Int(2)}},
		"kind":        {row(1, "p"), {String("not-an-int"), String("q")}},
		"kind middle": {{Int(1), Int(9)}, row(2, "q")},
	}
	for name, batch := range cases {
		a := NewAppender(New("x", appendSchema()), Limits{})
		if _, err := a.AppendBatch([][]Value{row(0, "seed")}); err != nil {
			t.Fatal(err)
		}
		fp, rows, seq := a.Fingerprint(), a.Rows(), a.Batches()
		if _, err := a.AppendBatch(batch); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if a.Fingerprint() != fp || a.Rows() != rows || a.Batches() != seq {
			t.Fatalf("%s: rejected batch mutated the appender", name)
		}
	}
}

// TestAppenderLimits: the row ceiling and field bound reject with the
// typed error, and cross-kind numerics are accepted.
func TestAppenderLimits(t *testing.T) {
	a := NewAppender(New("x", appendSchema()), Limits{MaxRows: 2})
	if _, err := a.AppendBatch([][]Value{row(1, "p"), row(2, "q")}); err != nil {
		t.Fatal(err)
	}
	_, err := a.AppendBatch([][]Value{row(3, "r")})
	var tooLarge *ErrInputTooLarge
	if !errors.As(err, &tooLarge) || tooLarge.What != "rows" {
		t.Fatalf("row ceiling: %v", err)
	}

	a = NewAppender(New("x", appendSchema()), Limits{MaxFieldBytes: 4})
	_, err = a.AppendBatch([][]Value{row(1, strings.Repeat("z", 10))})
	if !errors.As(err, &tooLarge) || tooLarge.What != "field bytes" {
		t.Fatalf("field bound: %v", err)
	}

	// Float into an int column (and null anywhere) is fine: Key and
	// Compare read the numeric payload only.
	a = NewAppender(New("x", appendSchema()), Limits{})
	if _, err := a.AppendBatch([][]Value{{Float(1.5), Null(KindString)}}); err != nil {
		t.Fatalf("cross-kind numeric/null: %v", err)
	}
}

// TestAppenderAcceptsWhatReadersAccept: AppendBatch bounds field bytes
// as the CSV readers do, so every relation a reader accepts under some
// Limits appends whole under the same Limits — numbers whose rendering
// outgrows their text and nulls included.
func TestAppenderAcceptsWhatReadersAccept(t *testing.T) {
	inputs := []string{hotelsCSV, "x,y\n1e5,\n", "a,b\n0.000001,\"\"\n,NaN\n", "s\n\"ab\r\ncd\"\n"}
	for _, data := range inputs {
		for _, lim := range []Limits{{}, {MaxFieldBytes: 2}, {MaxFieldBytes: 3}, {MaxFieldBytes: 5}, {MaxRows: 3, MaxFieldBytes: 7}} {
			if r, err := ReadCSVAuto("r", []byte(data), lim); err == nil {
				checkAppenderAccepts(t, r, lim)
			}
			if r, err := ReadCSVLimits("r", strings.NewReader(data), nil, lim); err == nil {
				checkAppenderAccepts(t, r, lim)
			}
		}
	}
}

// TestAppenderEmptyBatch: a no-op returning the current fingerprint.
func TestAppenderEmptyBatch(t *testing.T) {
	a := NewAppender(New("x", appendSchema()), Limits{})
	fp0 := a.Fingerprint()
	fp, err := a.AppendBatch(nil)
	if err != nil || fp != fp0 || a.Batches() != 0 {
		t.Fatalf("empty batch: fp %s (want %s), seq %d, err %v", fp, fp0, a.Batches(), err)
	}
}
