package cords

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// oracleCol is one dictionary-encoded column: per-row codes, the code
// cardinality, and each code's Value.Key() string (codes and keys are
// bijective, so ordering by key is ordering by value identity).
type oracleCol struct {
	codes []int
	card  int
	keys  []string
}

// oracleEncode dictionary-encodes column c and records a representative
// key per code for frequent-value tie-breaking.
func oracleEncode(r *relation.Relation, c int) oracleCol {
	codes, card := r.Codes(c)
	keys := make([]string, card)
	seen := make([]bool, card)
	for row, code := range codes {
		if !seen[code] {
			seen[code] = true
			keys[code] = r.Value(row, c).Key()
		}
	}
	return oracleCol{codes: codes, card: card, keys: keys}
}

// oracleAnalyze is the per-pair analysis that per-column statistics and
// stamp-array pair counting replaced, kept as the differential oracle: it
// recounts both columns and recomputes their frequent values for every
// pair, and counts distinct code pairs by sorting them.
func oracleAnalyze(sample []int, d1, d2 *oracleCol, c1, c2 int, opts Options) Correlation {
	cnt1 := make([]int, d1.card)
	cnt2 := make([]int, d2.card)
	packed := make([]int64, 0, len(sample))
	for _, row := range sample {
		k1, k2 := d1.codes[row], d2.codes[row]
		cnt1[k1]++
		cnt2[k2]++
		packed = append(packed, int64(k1)*int64(d2.card)+int64(k2))
	}
	distinct1 := 0
	for _, c := range cnt1 {
		if c > 0 {
			distinct1++
		}
	}
	sort.Slice(packed, func(i, j int) bool { return packed[i] < packed[j] })
	pairDistinct := 0
	for i, p := range packed {
		if i == 0 || p != packed[i-1] {
			pairDistinct++
		}
	}
	corr := Correlation{Col1: c1, Col2: c2}
	if pairDistinct > 0 {
		corr.Strength = float64(distinct1) / float64(pairDistinct)
	} else {
		corr.Strength = 1
	}
	// Bucket to the MaxCategories most frequent values per column.
	top1 := topCodes(cnt1, d1.keys, opts.MaxCategories)
	top2 := topCodes(cnt2, d2.keys, opts.MaxCategories)
	idx1 := index(top1, d1.card)
	idx2 := index(top2, d2.card)
	rows, cols := len(top1), len(top2)
	if rows < 2 || cols < 2 {
		// A constant column is trivially dependent; chi-square undefined.
		corr.Correlated = corr.Strength >= opts.MinStrength
		return corr
	}
	table := make([][]float64, rows)
	for i := range table {
		table[i] = make([]float64, cols)
	}
	total := 0.0
	for _, row := range sample {
		i := idx1[d1.codes[row]]
		j := idx2[d2.codes[row]]
		if i >= 0 && j >= 0 {
			table[i][j]++
			total++
		}
	}
	if total == 0 {
		return corr
	}
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	for i := range table {
		for j := range table[i] {
			rowSum[i] += table[i][j]
			colSum[j] += table[i][j]
		}
	}
	chi := 0.0
	for i := range table {
		for j := range table[i] {
			expected := rowSum[i] * colSum[j] / total
			if expected > 0 {
				d := table[i][j] - expected
				chi += d * d / expected
			}
		}
	}
	corr.ChiSquare = chi
	dof := float64((rows - 1) * (cols - 1))
	// Normal approximation to the chi-square critical value at the 0.01
	// level: χ² > dof + 2.33·sqrt(2·dof) (Wilson–Hilferty would be finer;
	// CORDS itself uses a robust cutoff, not an exact test).
	critical := dof + 2.33*math.Sqrt(2*dof)
	corr.Correlated = chi > critical
	return corr
}

// oracleCorrelations runs oracleAnalyze over every ordered column pair of
// the sample Discover draws, in Discover's pair order.
func oracleCorrelations(r *relation.Relation, opts Options) []Correlation {
	opts = opts.withDefaults()
	sample := sampleRows(r, opts.SampleSize, opts.Seed)
	cols := make([]oracleCol, r.Cols())
	for c := range cols {
		cols[c] = oracleEncode(r, c)
	}
	var out []Correlation
	for c1 := range cols {
		for c2 := range cols {
			if c1 != c2 {
				out = append(out, oracleAnalyze(sample, &cols[c1], &cols[c2], c1, c2, opts))
			}
		}
	}
	return out
}

// bytesRelation builds a relation from data: the first byte picks the
// column count (1–5) and each column's kind, every further byte one cell.
// Domains are tiny, so nulls, NaN payloads, ±0, duplicate rows and
// constant columns are all frequent.
func bytesRelation(data []byte, maxRows int) *relation.Relation {
	if len(data) == 0 {
		return nil
	}
	head := data[0]
	data = data[1:]
	ncols := 1 + int(head)%5
	attrs := make([]relation.Attribute, ncols)
	for c := range attrs {
		attrs[c] = relation.Attribute{Name: string(rune('a' + c)), Kind: relation.KindString}
		if head>>(3+c)&1 == 1 {
			attrs[c].Kind = relation.KindFloat
		}
	}
	floats := []float64{math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), 0, math.Copysign(0, -1), 1.5, 2, -1}
	r := relation.New("bytes", relation.NewSchema(attrs...))
	row := make([]relation.Value, ncols)
	for len(data) >= ncols && r.Rows() < maxRows {
		for c := range row {
			b := data[c]
			switch {
			case b%8 == 0:
				row[c] = relation.Null(attrs[c].Kind)
			case attrs[c].Kind == relation.KindFloat:
				row[c] = relation.Float(floats[int(b>>3)%len(floats)])
			default:
				row[c] = relation.String(string(rune('p' + int(b>>3)%4)))
			}
		}
		data = data[ncols:]
		if err := r.Append(row); err != nil {
			panic(err) // kinds follow the schema: cannot fail
		}
	}
	return r
}

// differentialRelations are the shapes the statistics are checked on:
// hotel relations with variety, errors and duplicates, and random
// relations whose cells take a few values each (constant columns
// included, since a one-column draw or a narrow domain is often constant).
func differentialRelations() []*relation.Relation {
	rels := []*relation.Relation{
		gen.Hotels(gen.HotelConfig{Rows: 500, Seed: 3}),
		gen.Hotels(gen.HotelConfig{Rows: 300, Seed: 7, ErrorRate: 0.02, VarietyRate: 0.05, DuplicateRate: 0.1}),
		gen.Hotels(gen.HotelConfig{Rows: 120, Seed: 3, ErrorRate: 0.2, VarietyRate: 0.3, DuplicateRate: 0.3}),
	}
	rng := rand.New(rand.NewSource(23))
	for _, rows := range []int{0, 1, 2, 9, 60, 250} {
		for k := 0; k < 3; k++ {
			data := make([]byte, 1+5*rows)
			rng.Read(data)
			for i := 1; i < len(data); i++ {
				data[i] %= 8 * byte(1+k)
			}
			rels = append(rels, bytesRelation(data, rows))
		}
	}
	return rels
}

func checkCorrelations(t *testing.T, r *relation.Relation, opts Options) {
	t.Helper()
	want := oracleCorrelations(r, opts)
	got := Discover(r, opts)
	if len(got.Correlations) != len(want) || got.Partial {
		t.Fatalf("%d×%d %+v: %d correlations (partial %v), oracle %d", r.Rows(), r.Cols(), opts, len(got.Correlations), got.Partial, len(want))
	}
	for i, w := range want {
		g := got.Correlations[i]
		if g.Col1 != w.Col1 || g.Col2 != w.Col2 || g.Correlated != w.Correlated ||
			math.Float64bits(g.Strength) != math.Float64bits(w.Strength) ||
			math.Float64bits(g.ChiSquare) != math.Float64bits(w.ChiSquare) {
			t.Fatalf("%d×%d %+v: correlation %d = %+v, oracle %+v", r.Rows(), r.Cols(), opts, i, g, w)
		}
	}
}

// TestDiscoverMatchesOracle: with and without sampling, with the default
// and a narrow frequent-value cap, at workers 1 and 4, every Correlation
// equals the oracle's field by field, floats by their bits.
func TestDiscoverMatchesOracle(t *testing.T) {
	for _, r := range differentialRelations() {
		for _, sample := range []int{0, 40} {
			for _, maxCat := range []int{0, 3} {
				for _, workers := range []int{1, 4} {
					checkCorrelations(t, r, Options{SampleSize: sample, Seed: 5, MaxCategories: maxCat, Exec: engine.Exec{Workers: workers}})
				}
			}
		}
	}
}

// FuzzCORDSMatchOracle: the per-column statistics and stamp counting equal
// the oracle on arbitrary small relations, sampled or not.
func FuzzCORDSMatchOracle(f *testing.F) {
	f.Add(uint8(0), []byte{0x03, 1, 9, 17, 1, 9, 25, 0, 9, 17})
	f.Add(uint8(5), []byte{0x1c, 8, 16, 8, 16, 0, 0, 24, 24, 8, 8, 16, 16})
	f.Add(uint8(2), []byte{0xf4, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, sample uint8, data []byte) {
		if r := bytesRelation(data, 40); r != nil {
			checkCorrelations(t, r, Options{SampleSize: int(sample % 48), Seed: int64(sample), MaxCategories: 1 + int(sample)%4})
		}
	})
}
