package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deptree/internal/relation"
)

func TestEditDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"Chicago", "Chicago, IL", 4},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"ab", "ba", 2},
		{"héllo", "hello", 1}, // runes, not bytes
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceMetricAxioms(t *testing.T) {
	f := func(a, b, c string) bool {
		// Bound sizes to keep the quadratic DP fast.
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		if len(c) > 30 {
			c = c[:30]
		}
		dab := EditDistance(a, b)
		dba := EditDistance(b, a)
		dac := EditDistance(a, c)
		dcb := EditDistance(c, b)
		if dab != dba {
			return false // symmetry
		}
		if (dab == 0) != (a == b) {
			return false // identity of indiscernibles
		}
		return dab <= dac+dcb // triangle inequality
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// untrimmedLevenshtein is the full two-row program over runes, with no
// prefix or suffix stripping: the oracle of the trimmed levenshtein.
func untrimmedLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Random strings over a small alphabet with multibyte runes share
// prefixes, suffixes and inner runes often, so stripping is exercised
// on every shape, including one string inside the other.
func TestLevenshteinTrimMatchesUntrimmed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("abé日🙂 ")
	word := func() string {
		rs := make([]rune, rng.Intn(12))
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	var rows dpRows
	for i := 0; i < 20000; i++ {
		a, b := word(), word()
		switch i % 4 {
		case 1:
			b = a + b
		case 2:
			b = b + a
		case 3:
			ra := []rune(a)
			b = string(ra[:len(ra)/2]) + b + string(ra[len(ra)/2:])
		}
		want := untrimmedLevenshtein(a, b)
		if got := levenshtein([]rune(a), []rune(b), &rows); got != want {
			t.Fatalf("levenshtein(%q, %q) = %d, untrimmed %d", a, b, got, want)
		}
		if got := EditDistance(b, a); got != want {
			t.Fatalf("EditDistance(%q, %q) = %d, untrimmed %d", b, a, got, want)
		}
	}
}

func TestOSADistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"ab", "ba", 1}, // transposition counts once
		{"ca", "abc", 3},
		{"kitten", "sitting", 3},
		{"", "x", 1},
		{"abcdef", "abcdef", 0},
	}
	for _, c := range cases {
		if got := OSADistance(c.a, c.b); got != c.want {
			t.Errorf("OSADistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOSANeverExceedsLevenshtein(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		return OSADistance(a, b) <= EditDistance(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJaccardQGrams(t *testing.T) {
	if s := JaccardQGrams("", "", 2); s != 1 {
		t.Errorf("empty strings: %v", s)
	}
	if s := JaccardQGrams("abcd", "abcd", 2); s != 1 {
		t.Errorf("identical: %v", s)
	}
	if s := JaccardQGrams("ab", "xy", 2); s != 0 {
		t.Errorf("disjoint: %v", s)
	}
	// grams("abc")={ab,bc}, grams("abd")={ab,bd}: 1/3.
	if s := JaccardQGrams("abc", "abd", 2); math.Abs(s-1.0/3) > 1e-12 {
		t.Errorf("overlap: %v", s)
	}
	// Short strings fall back to the whole string as one gram.
	if s := JaccardQGrams("a", "a", 3); s != 1 {
		t.Errorf("short equal: %v", s)
	}
}

func TestJaroWinkler(t *testing.T) {
	if s := JaroWinkler("martha", "marhta"); math.Abs(s-0.9611111) > 1e-4 {
		t.Errorf("martha/marhta = %v", s)
	}
	if s := JaroWinkler("dixon", "dicksonx"); math.Abs(s-0.8133333) > 1e-4 {
		t.Errorf("dixon/dicksonx = %v", s)
	}
	if s := JaroWinkler("", ""); s != 1 {
		t.Errorf("empty = %v", s)
	}
	if s := JaroWinkler("abc", ""); s != 0 {
		t.Errorf("one empty = %v", s)
	}
	if s := JaroWinkler("same", "same"); s != 1 {
		t.Errorf("identical = %v", s)
	}
}

func TestJaroWinklerBounds(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 25 {
			a = a[:25]
		}
		if len(b) > 25 {
			b = b[:25]
		}
		s := JaroWinkler(a, b)
		return s >= 0 && s <= 1 && JaroWinkler(b, a) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMetricImplementations(t *testing.T) {
	a, b := relation.String("Chicago"), relation.String("Chicago, IL")
	if d := (Equality{}).Distance(a, a); d != 0 {
		t.Error("Equality identical")
	}
	if d := (Equality{}).Distance(a, b); d != 1 {
		t.Error("Equality distinct")
	}
	if d := (Levenshtein{}).Distance(a, b); d != 4 {
		t.Errorf("Levenshtein = %v", d)
	}
	if d := (Absolute{}).Distance(relation.Int(10), relation.Int(3)); d != 7 {
		t.Errorf("Absolute = %v", d)
	}
	if d := (Absolute{}).Distance(a, b); !math.IsNaN(d) {
		t.Error("Absolute on strings should be NaN")
	}
	if d := (Levenshtein{}).Distance(relation.Null(relation.KindString), a); !math.IsNaN(d) {
		t.Error("Levenshtein on null should be NaN")
	}
	if d := (DamerauOSA{}).Distance(relation.String("ab"), relation.String("ba")); d != 1 {
		t.Errorf("DamerauOSA = %v", d)
	}
	if d := (QGramJaccard{}).Distance(relation.String("abcd"), relation.String("abcd")); d != 0 {
		t.Errorf("QGramJaccard identical = %v", d)
	}
	if ForKind(relation.KindString).Name() != "levenshtein" || ForKind(relation.KindInt).Name() != "abs" {
		t.Error("ForKind defaults wrong")
	}
}

func TestCrispEqualResemblance(t *testing.T) {
	c := CrispEqual{}
	if c.Eq(relation.String("x"), relation.String("x")) != 1 {
		t.Error("equal -> 1")
	}
	if c.Eq(relation.String("x"), relation.String("y")) != 0 {
		t.Error("distinct -> 0")
	}
}

func TestInverseNumericResemblance(t *testing.T) {
	// The paper's §3.6.1 example: β=1 on price, β=10 on tax.
	price := InverseNumeric{Beta: 1}
	if got := price.Eq(relation.Int(299), relation.Int(300)); got != 0.5 {
		t.Errorf("µ(299,300) = %v, want 0.5", got)
	}
	tax := InverseNumeric{Beta: 10}
	if got := tax.Eq(relation.Int(29), relation.Int(20)); math.Abs(got-1.0/91) > 1e-12 {
		t.Errorf("µ(29,20) = %v, want 1/91", got)
	}
	if got := price.Eq(relation.String("a"), relation.String("a")); got != 1 {
		t.Errorf("string fallback equal = %v", got)
	}
}

func TestScaledMetricResemblance(t *testing.T) {
	m := ScaledMetric{M: Levenshtein{}, Scale: 4}
	if got := m.Eq(relation.String("abcd"), relation.String("abcd")); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := m.Eq(relation.String("abcd"), relation.String("abce")); got != 0.75 {
		t.Errorf("one edit = %v", got)
	}
	if got := m.Eq(relation.String("abcd"), relation.String("wxyz!")); got != 0 {
		t.Errorf("beyond scale = %v", got)
	}
	if got := m.Eq(relation.Null(relation.KindString), relation.Null(relation.KindString)); got != 1 {
		t.Errorf("null/null = %v", got)
	}
	if got := m.Eq(relation.Null(relation.KindString), relation.String("x")); got != 0 {
		t.Errorf("null/value = %v", got)
	}
}
