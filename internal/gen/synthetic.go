package gen

import (
	"fmt"
	"math/rand"

	"deptree/internal/relation"
)

// HotelConfig controls the synthetic hotel generator. Each knob maps to a
// phenomenon from the paper: VarietyRate injects alternative representation
// formats ("Chicago" vs "Chicago, IL", §1.2), ErrorRate injects true
// veracity errors (wrong region, zero price — the t7/t8 case), and
// DuplicateRate emits near-duplicate tuples from a second "source" with
// perturbed formats (the §3 dataspace setting).
type HotelConfig struct {
	// Rows is the number of tuples to generate.
	Rows int
	// Seed makes generation deterministic.
	Seed int64
	// Regions is the number of distinct regions (default 20).
	Regions int
	// AddrsPerRegion is the number of addresses per region (default 10);
	// address → region holds exactly on clean data.
	AddrsPerRegion int
	// VarietyRate is the fraction of rows whose region/name use an
	// alternative representation format. Variety is NOT an error.
	VarietyRate float64
	// ErrorRate is the fraction of rows with an injected veracity error
	// (region replaced by a wrong region, or price zeroed).
	ErrorRate float64
	// DuplicateRate is the fraction of rows that near-duplicate an earlier
	// row, with format perturbation, tagged source "s2".
	DuplicateRate float64
}

func (c HotelConfig) withDefaults() HotelConfig {
	if c.Regions == 0 {
		c.Regions = 20
	}
	if c.AddrsPerRegion == 0 {
		c.AddrsPerRegion = 10
	}
	return c
}

// HotelSchema is the schema produced by Hotels.
func HotelSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Attribute{Name: "source", Kind: relation.KindString},
		relation.Attribute{Name: "name", Kind: relation.KindString},
		relation.Attribute{Name: "address", Kind: relation.KindString},
		relation.Attribute{Name: "region", Kind: relation.KindString},
		relation.Attribute{Name: "star", Kind: relation.KindInt},
		relation.Attribute{Name: "price", Kind: relation.KindInt},
		relation.Attribute{Name: "nights", Kind: relation.KindInt},
		relation.Attribute{Name: "subtotal", Kind: relation.KindInt},
		relation.Attribute{Name: "tax", Kind: relation.KindInt},
	)
}

var regionSuffixes = []string{"IL", "MA", "CA", "TX", "NY", "WA"}

// cityNames are pairwise edit-distant base region names, so an injected
// wrong-region error is metrically FAR from the true value while format
// variety (a ", XX" suffix) stays NEAR — the separation §1.2 relies on.
var cityNames = []string{
	"Ashford", "Brookfield", "Carlton", "Davenport", "Eastwood",
	"Fairview", "Glenhaven", "Hartwell", "Ironridge", "Jasperton",
	"Kingsley", "Lakewood", "Maplewood", "Northgate", "Oakhurst",
	"Pinecrest", "Quarrytown", "Riverton", "Stonebridge", "Telford",
}

// regionName maps a region index to its base name.
func regionName(reg int) string {
	name := cityNames[reg%len(cityNames)]
	if reg >= len(cityNames) {
		name = fmt.Sprintf("%s %d", name, reg/len(cityNames)+1)
	}
	return name
}

// Hotels generates a synthetic hotel relation. On clean rows the following
// dependencies hold by construction and can be rediscovered:
//
//   - FD  address → region (exactly, modulo variety/errors)
//   - FD  region → star band; star → price band (approximately)
//   - OD  nights ≤ → subtotal ≤ per hotel (subtotal = nights·price)
//   - DC  ¬(price < 100 ∧ star ≥ 4) style constraints
//   - MFD/DD tolerance: perturbed duplicates stay within small edit distance
func Hotels(cfg HotelConfig) *relation.Relation {
	r, _ := HotelsWithTruth(cfg)
	return r
}

// HotelsWithTruth is Hotels plus the ground truth: the set of row indices
// that received an injected veracity error. Rows with mere format variety
// are NOT in the set — they are correct data in an alternative
// representation, which is exactly the precision trap of §1.2.
func HotelsWithTruth(cfg HotelConfig) (*relation.Relation, map[int]bool) {
	return HotelsWithTruthRand(rand.New(rand.NewSource(cfg.Seed)), cfg)
}

// HotelsWithTruthRand is HotelsWithTruth drawing randomness from an
// injected source instead of cfg.Seed. Generators take a *rand.Rand rather
// than seeding any global state, so concurrent and differential test runs
// are reproducible per-source.
func HotelsWithTruthRand(rng *rand.Rand, cfg HotelConfig) (*relation.Relation, map[int]bool) {
	cfg = cfg.withDefaults()
	r := relation.New("hotels", HotelSchema())
	truth := map[int]bool{}

	type base struct {
		name, address, region string
		star, price           int
	}
	var rows []base
	mkBase := func() base {
		reg := rng.Intn(cfg.Regions)
		addr := rng.Intn(cfg.AddrsPerRegion)
		star := 1 + (reg+addr)%5
		price := 80 + star*100 + rng.Intn(40)
		return base{
			name:    fmt.Sprintf("Hotel %c%d", 'A'+reg%26, addr),
			address: fmt.Sprintf("No.%d, %d Street", addr+1, reg*10),
			region:  regionName(reg),
			star:    star,
			price:   price,
		}
	}

	for len(rows) < cfg.Rows {
		var b base
		src := "s1"
		if len(rows) > 0 && rng.Float64() < cfg.DuplicateRate {
			b = rows[rng.Intn(len(rows))]
			src = "s2"
			// Format perturbation on the duplicate: abbreviation-style edits.
			if len(b.name) > 3 {
				b.name = b.name[:len(b.name)-1]
			}
			if len(b.address) >= 3 {
				b.address = "#" + b.address[3:]
			}
		} else {
			b = mkBase()
		}
		rows = append(rows, b)

		region := b.region
		name := b.name
		price := b.price
		if rng.Float64() < cfg.VarietyRate {
			region = region + ", " + regionSuffixes[rng.Intn(len(regionSuffixes))]
		}
		if rng.Float64() < cfg.ErrorRate {
			if rng.Intn(2) == 0 {
				// Wrong region: a different base city, never the true one.
				region = regionName((rng.Intn(cfg.Regions-1) + 1 + indexOf(b.region, cfg.Regions)) % cfg.Regions)
			} else {
				price = 0 // the t8 "price 0" error
			}
			truth[len(rows)-1] = true
		}
		nights := 1 + rng.Intn(7)
		subtotal := nights * price
		tax := subtotal / 10
		err := r.Append([]relation.Value{
			relation.String(src),
			relation.String(name),
			relation.String(b.address),
			relation.String(region),
			relation.Int(b.star),
			relation.Int(price),
			relation.Int(nights),
			relation.Int(subtotal),
			relation.Int(tax),
		})
		if err != nil {
			panic(err) // static schema: cannot fail
		}
	}
	return r, truth
}

// CityIndex returns the region index whose base name equals the given
// string, or -1 when it is not a generator region name. Exposed so tests
// and examples can separate base names from variety suffixes.
func CityIndex(base string) int {
	for reg := 0; reg < 3*len(cityNames); reg++ {
		if regionName(reg) == base {
			return reg
		}
	}
	return -1
}

// indexOf recovers the region index of a base region name (inverse of
// regionName for the generator's own values).
func indexOf(region string, nRegions int) int {
	for reg := 0; reg < nRegions; reg++ {
		if regionName(reg) == region {
			return reg
		}
	}
	return 0
}

// Categorical generates a random categorical relation with the given number
// of rows and per-column cardinalities, for discovery scaling benchmarks
// (Fig 3). Column i is named c0, c1, ....
func Categorical(rows int, cards []int, seed int64) *relation.Relation {
	return CategoricalRand(rand.New(rand.NewSource(seed)), rows, cards)
}

// CategoricalRand is Categorical drawing randomness from an injected
// source.
func CategoricalRand(rng *rand.Rand, rows int, cards []int) *relation.Relation {
	attrs := make([]relation.Attribute, len(cards))
	for i := range cards {
		attrs[i] = relation.Attribute{Name: fmt.Sprintf("c%d", i), Kind: relation.KindString}
	}
	r := relation.New("categorical", relation.NewSchema(attrs...))
	row := make([]relation.Value, len(cards))
	for n := 0; n < rows; n++ {
		for i, card := range cards {
			row[i] = relation.String(fmt.Sprintf("v%d", rng.Intn(card)))
		}
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}

// WithFD generates a categorical relation where column "rhs" is a function
// of columns lhs (plus optional noise), so FD discovery has a planted
// target. noise is the fraction of rows whose rhs value is randomized.
func WithFD(rows int, lhsCards []int, noise float64, seed int64) *relation.Relation {
	return WithFDRand(rand.New(rand.NewSource(seed)), rows, lhsCards, noise)
}

// WithFDRand is WithFD drawing randomness from an injected source.
func WithFDRand(rng *rand.Rand, rows int, lhsCards []int, noise float64) *relation.Relation {
	attrs := make([]relation.Attribute, len(lhsCards)+1)
	for i := range lhsCards {
		attrs[i] = relation.Attribute{Name: fmt.Sprintf("x%d", i), Kind: relation.KindString}
	}
	attrs[len(lhsCards)] = relation.Attribute{Name: "y", Kind: relation.KindString}
	r := relation.New("withfd", relation.NewSchema(attrs...))
	row := make([]relation.Value, len(attrs))
	for n := 0; n < rows; n++ {
		h := 0
		for i, card := range lhsCards {
			v := rng.Intn(card)
			h = h*31 + v
			row[i] = relation.String(fmt.Sprintf("v%d", v))
		}
		y := h % 97
		if rng.Float64() < noise {
			y = rng.Intn(97)
		}
		row[len(lhsCards)] = relation.String(fmt.Sprintf("y%d", y))
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}

// Series generates an ordered numerical relation (seq, value) where value
// increases by a step drawn uniformly from [minStep, maxStep], with a
// violationRate fraction of steps drawn outside the interval — the workload
// shape of sequential dependencies (§4.4, network-polling audit).
func Series(rows int, minStep, maxStep float64, violationRate float64, seed int64) *relation.Relation {
	return SeriesRand(rand.New(rand.NewSource(seed)), rows, minStep, maxStep, violationRate)
}

// SeriesRand is Series drawing randomness from an injected source.
func SeriesRand(rng *rand.Rand, rows int, minStep, maxStep float64, violationRate float64) *relation.Relation {
	schema := relation.NewSchema(
		relation.Attribute{Name: "seq", Kind: relation.KindInt},
		relation.Attribute{Name: "value", Kind: relation.KindFloat},
	)
	r := relation.New("series", schema)
	v := 0.0
	for n := 0; n < rows; n++ {
		if err := r.Append([]relation.Value{relation.Int(n), relation.Float(v)}); err != nil {
			panic(err)
		}
		step := minStep + rng.Float64()*(maxStep-minStep)
		if rng.Float64() < violationRate {
			if rng.Intn(2) == 0 {
				step = maxStep * 3 // too large
			} else {
				step = -minStep // drop / too small
			}
		}
		v += step
	}
	return r
}

// LargeOrdered generates a million-row-scale benchmark relation with
// planted order and functional structure over five numeric columns:
//
//	ts     strictly increasing int (a timestamp / primary order)
//	seq    strictly increasing float derived from ts — ts≤→seq≤ and
//	       seq≤→ts≤ both hold, the planted ODs
//	load   uniform noise — participates in no dependency
//	bucket low-cardinality int (8 values) — the LHS of the planted FD
//	grp    bucket-derived (bucket mod 4) — FD bucket→grp holds
//
// The shape exercises exactly the million-row fast paths: set-based OD
// discovery amortizes one sort per column across all candidates, and
// sample-then-verify proposes the planted structure from a small sample.
func LargeOrdered(rows int, seed int64) *relation.Relation {
	return LargeOrderedRand(rand.New(rand.NewSource(seed)), rows)
}

// LargeWide generates the adversarial companion to LargeOrdered: a wide
// numeric relation where almost every candidate OD is invalid but only
// refutable near the end of the relation. Columns:
//
//	ts           strictly increasing int (the primary order)
//	m1..m{ord-1} strictly increasing floats derived from ts — the
//	             ord-column family is mutually order-equivalent, so
//	             every asc→asc pair inside it is a planted OD
//	t1..t{tail}  "tail-noise" floats: equal to the monotone spine for
//	             the first 95% of rows, uniform noise for the last 5% —
//	             every candidate touching one is invalid, but its first
//	             violating neighbor pair sits in the final 5%, so a
//	             fail-fast scan pays ~0.95·n before refuting
//
// The shape separates full-relation discovery from sample-then-verify
// by design: full mode pays a near-full O(n) scan for each of the
// O((ord+tail)²) tail candidates, while a sampled run refutes them on
// the sample (the noise region is dense enough that any uniform sample
// witnesses it) and verifies only the small planted family.
func LargeWide(rows, ord, tail int, seed int64) *relation.Relation {
	return LargeWideRand(rand.New(rand.NewSource(seed)), rows, ord, tail)
}

// LargeWideRand is LargeWide drawing randomness from an injected source.
func LargeWideRand(rng *rand.Rand, rows, ord, tail int) *relation.Relation {
	attrs := []relation.Attribute{{Name: "ts", Kind: relation.KindInt}}
	for i := 1; i < ord; i++ {
		attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("m%d", i), Kind: relation.KindFloat})
	}
	for i := 1; i <= tail; i++ {
		attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("t%d", i), Kind: relation.KindFloat})
	}
	schema := relation.NewSchema(attrs...)
	r := relation.New("large-wide", schema)
	cut := rows - rows/20 // last 5% of rows carry the noise region
	ts := int64(0)
	row := make([]relation.Value, len(attrs))
	for n := 0; n < rows; n++ {
		ts += 1 + int64(rng.Intn(5))
		row[0] = relation.Int(int(ts))
		for i := 1; i < ord; i++ {
			row[i] = relation.Float(float64(ts)*float64(i) + float64(i))
		}
		for i := 0; i < tail; i++ {
			if n < cut {
				row[ord+i] = relation.Float(float64(ts))
			} else {
				row[ord+i] = relation.Float(rng.Float64() * 1e9)
			}
		}
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}

// LargeOrderedRand is LargeOrdered drawing randomness from an injected
// source.
func LargeOrderedRand(rng *rand.Rand, rows int) *relation.Relation {
	schema := relation.NewSchema(
		relation.Attribute{Name: "ts", Kind: relation.KindInt},
		relation.Attribute{Name: "seq", Kind: relation.KindFloat},
		relation.Attribute{Name: "load", Kind: relation.KindFloat},
		relation.Attribute{Name: "bucket", Kind: relation.KindInt},
		relation.Attribute{Name: "grp", Kind: relation.KindInt},
	)
	r := relation.New("large-ordered", schema)
	ts := int64(0)
	seq := 0.0
	row := make([]relation.Value, 5)
	for n := 0; n < rows; n++ {
		ts += 1 + int64(rng.Intn(5))
		seq += 0.5 + rng.Float64()
		bucket := rng.Intn(8)
		row[0] = relation.Int(int(ts))
		row[1] = relation.Float(seq)
		row[2] = relation.Float(rng.Float64() * 1000)
		row[3] = relation.Int(bucket)
		row[4] = relation.Int(bucket % 4)
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}
