package cddisc

import (
	"testing"

	"deptree/internal/deps/cd"
	"deptree/internal/gen"
)

func TestPayAsYouGoSession(t *testing.T) {
	r := gen.Dataspace()
	s := r.Schema()
	sess := NewSession(r, Options{MinSupport: 1, MaxError: 0})
	// First function: nothing to pair with yet.
	added := sess.AddFunction(cd.Theta(s, "region", "city", 5, 5, 5))
	if len(added) != 0 {
		t.Errorf("first function produced CDs without partners: %v", added)
	}
	// Second function θ(addr, post): the paper's cd1 should emerge.
	added = sess.AddFunction(cd.Theta(s, "addr", "post", 7, 9, 6))
	if len(added) == 0 {
		t.Fatal("no CDs after the second function")
	}
	foundCD1 := false
	for _, c := range added {
		if !c.Holds(r) {
			t.Errorf("discovered CD %v does not hold (g3 > 0 reported as 0)", c)
		}
		if c.String() == "θ(region,city)[5,5,5] -> θ(addr,post)[7,9,6]" {
			foundCD1 = true
		}
	}
	if !foundCD1 {
		t.Errorf("cd1 not discovered: %v", added)
	}
	if len(sess.Found()) != len(added) {
		t.Error("session did not accumulate")
	}
	if len(sess.Functions()) != 2 {
		t.Error("functions not recorded")
	}
}

func TestIncrementalGrowth(t *testing.T) {
	// Each AddFunction only evaluates candidates involving the new θ; the
	// accumulated set equals what a batch over all functions would report.
	r := gen.Dataspace()
	s := r.Schema()
	thetas := []cd.SimilarityFunc{
		cd.Theta(s, "region", "city", 5, 5, 5),
		cd.Theta(s, "addr", "post", 7, 9, 6),
		cd.Single(s, "name", 2),
	}
	sess := NewSession(r, Options{MinSupport: 1, MaxLHS: 1})
	for _, th := range thetas {
		sess.AddFunction(th)
	}
	// Batch: evaluate every ordered single-LHS pair directly.
	batch := map[string]bool{}
	for _, a := range thetas {
		for _, b := range thetas {
			if a == b {
				continue
			}
			c := cd.CD{LHS: []cd.SimilarityFunc{a}, RHS: b, Schema: s}
			if c.G3(r) == 0 && sessionSupport(sess, a) >= 1 {
				batch[c.String()] = true
			}
		}
	}
	got := map[string]bool{}
	for _, c := range sess.Found() {
		if len(c.LHS) == 1 {
			got[c.String()] = true
		}
	}
	if len(got) != len(batch) {
		t.Fatalf("incremental %v != batch %v", got, batch)
	}
	for k := range batch {
		if !got[k] {
			t.Fatalf("incremental missing %s", k)
		}
	}
}

// sessionSupport counts the row pairs of the session's relation similar
// under f, by the definition.
func sessionSupport(s *Session, f cd.SimilarityFunc) int {
	support := 0
	for i := 0; i < s.r.Rows(); i++ {
		for j := i + 1; j < s.r.Rows(); j++ {
			if f.Similar(s.r, i, j) {
				support++
			}
		}
	}
	return support
}

func TestErrorBudget(t *testing.T) {
	r := gen.Hotels(gen.HotelConfig{Rows: 20, Seed: 97, ErrorRate: 0.3})
	s := r.Schema()
	strict := NewSession(r, Options{MaxError: 0})
	strict.AddFunction(cd.Single(s, "address", 0))
	strictAdded := strict.AddFunction(cd.Single(s, "region", 4))
	loose := NewSession(r, Options{MaxError: 0.3})
	loose.AddFunction(cd.Single(s, "address", 0))
	looseAdded := loose.AddFunction(cd.Single(s, "region", 4))
	if len(looseAdded) < len(strictAdded) {
		t.Errorf("error budget lost CDs: %d vs %d", len(looseAdded), len(strictAdded))
	}
}
