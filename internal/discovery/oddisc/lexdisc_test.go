package oddisc

import (
	"context"
	"strings"
	"testing"
	"time"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

func TestDiscoverLexOnTable7(t *testing.T) {
	r := gen.Table7()
	ods := DiscoverLex(r, LexOptions{MaxWidth: 2})
	if len(ods) == 0 {
		t.Fatal("no lexicographic ODs discovered")
	}
	byString := map[string]bool{}
	for _, o := range ods {
		byString[o.String()] = true
		if !o.Holds(r) {
			t.Errorf("discovered LexOD %v does not hold", o)
		}
	}
	for _, want := range []string{
		"[nights≤] ~> [subtotal≤]",
		"[nights≤] ~> [avg/night≥]",
	} {
		if !byString[want] {
			t.Errorf("missing %q; got %v", want, ods)
		}
	}
}

func TestDiscoverLexPrefixPruning(t *testing.T) {
	// On Table 7 [nights≤] already orders subtotal; the 2-wide extensions
	// [nights≤, X] ~> [subtotal≤] are implied and must not be re-reported.
	r := gen.Table7()
	for _, o := range DiscoverLex(r, LexOptions{MaxWidth: 2}) {
		if len(o.LHS) == 2 && o.LHS[0].Col == r.Schema().MustIndex("nights") &&
			strings.Contains(o.String(), "~> [subtotal≤]") {
			t.Errorf("implied extension reported: %v", o)
		}
	}
}

func TestDiscoverLexNeedsCompositeLHS(t *testing.T) {
	// y follows (a, b) lexicographically but neither attribute alone.
	s := relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindInt},
		relation.Attribute{Name: "b", Kind: relation.KindInt},
		relation.Attribute{Name: "y", Kind: relation.KindInt},
	)
	r := relation.MustFromRows("lx", s, [][]relation.Value{
		{relation.Int(1), relation.Int(2), relation.Int(10)},
		{relation.Int(1), relation.Int(5), relation.Int(20)},
		{relation.Int(2), relation.Int(1), relation.Int(30)},
		{relation.Int(2), relation.Int(4), relation.Int(40)},
	})
	ods := DiscoverLex(r, LexOptions{MaxWidth: 2})
	found := false
	for _, o := range ods {
		if o.String() == "[a≤,b≤] ~> [y≤]" {
			found = true
		}
		if o.String() == "[b≤] ~> [y≤]" {
			t.Error("b alone does not order y")
		}
	}
	if !found {
		t.Errorf("[a≤,b≤] ~> [y≤] missing: %v", ods)
	}
}

// TestLexHonorsDeadline: with two equal ascending columns every
// candidate holds, so its check compares all 10,000² row pairs inside
// one pool task; a 50 ms deadline must end the run inside that check,
// long before the check could finish.
func TestLexHonorsDeadline(t *testing.T) {
	const rows = 10000
	r := relation.New("sorted", relation.NewSchema(
		relation.Attribute{Name: "a", Kind: relation.KindInt},
		relation.Attribute{Name: "b", Kind: relation.KindInt},
	))
	for i := 0; i < rows; i++ {
		if err := r.Append([]relation.Value{relation.Int(i), relation.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	res := DiscoverLexContext(context.Background(), r, LexOptions{Exec: engine.Exec{Budget: engine.Budget{Timeout: 50 * time.Millisecond}}})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("run took %v under a 50ms deadline", elapsed)
	}
	if !res.Partial || res.Reason != "deadline" {
		t.Fatalf("result = %+v, want Partial with reason deadline", res)
	}
}
