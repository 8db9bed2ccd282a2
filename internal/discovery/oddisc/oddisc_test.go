package oddisc

import (
	"context"
	"testing"

	"deptree/internal/gen"
)

func TestDiscoverOnTable7(t *testing.T) {
	r := gen.Table7()
	ods := DiscoverContext(context.Background(), r, Options{}).ODs
	if len(ods) == 0 {
		t.Fatal("no ODs discovered on the monotone Table 7")
	}
	byString := map[string]bool{}
	for _, o := range ods {
		byString[o.String()] = true
		if !o.Holds(r) {
			t.Errorf("discovered OD %v does not hold", o)
		}
	}
	// The paper's od1 (nights≤ → avg/night≥) and ofd1-as-OD
	// (subtotal≤ → taxes≤) must be found.
	for _, want := range []string{
		"nights≤ -> avg/night≥",
		"subtotal≤ -> taxes≤",
		"nights≤ -> subtotal≤",
	} {
		if !byString[want] {
			t.Errorf("missing OD %q; got %v", want, ods)
		}
	}
}

func TestDiscoverRejectsNonOrder(t *testing.T) {
	// Random series with violations: seq → value must not be reported.
	r := gen.Series(50, -5, 5, 0.5, 77)
	for _, o := range DiscoverContext(context.Background(), r, Options{}).ODs {
		if o.String() == "seq≤ -> value≤" || o.String() == "seq≤ -> value≥" {
			t.Errorf("non-monotone OD reported: %v", o)
		}
	}
}

func TestMinimalPrunesTransitive(t *testing.T) {
	r := gen.Table7()
	ods := DiscoverContext(context.Background(), r, Options{}).ODs
	minimal := Minimal(ods)
	if len(minimal) >= len(ods) {
		t.Errorf("Minimal did not prune: %d -> %d", len(ods), len(minimal))
	}
	// All pruned ODs still hold (soundness of transitive implication).
	for _, o := range ods {
		if !o.Holds(r) {
			t.Errorf("OD %v invalid", o)
		}
	}
}

// TestMinimalKeepsCliqueClosure: in a clique of mutually
// order-equivalent columns every OD is individually implied by the
// others, so a cover that drops all simultaneously-redundant ODs would
// delete the whole clique and lose its closure. The greedy cover must
// keep a cycle that still implies every discovered OD.
func TestMinimalKeepsCliqueClosure(t *testing.T) {
	// Three mutually order-equivalent columns (ord=3, no tail noise).
	r := gen.LargeWide(300, 3, 0, 1)
	ods := DiscoverContext(context.Background(), r, Options{}).ODs
	if len(ods) != 6 {
		t.Fatalf("expected the 6 ODs of a 3-clique, got %v", ods)
	}
	minimal := Minimal(ods)
	if len(minimal) == 0 {
		t.Fatal("canonical cover is empty: clique closure lost")
	}
	// Closure preservation: every discovered OD is reachable through the
	// cover's edges (each edge also contributes its mark-flipped mirror).
	type nd struct {
		col  int
		desc bool
	}
	adj := map[nd][]nd{}
	for _, o := range minimal {
		u, v := nd{o.LHS[0].Col, o.LHS[0].Desc}, nd{o.RHS[0].Col, o.RHS[0].Desc}
		adj[u] = append(adj[u], v)
		adj[nd{u.col, !u.desc}] = append(adj[nd{u.col, !u.desc}], nd{v.col, !v.desc})
	}
	reaches := func(from, to nd) bool {
		visited := map[nd]bool{from: true}
		stack := []nd{from}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range adj[cur] {
				if next == to {
					return true
				}
				if !visited[next] {
					visited[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	for _, o := range ods {
		u, v := nd{o.LHS[0].Col, o.LHS[0].Desc}, nd{o.RHS[0].Col, o.RHS[0].Desc}
		if !reaches(u, v) {
			t.Errorf("cover %v does not imply discovered OD %v", minimal, o)
		}
	}
}

func TestColumnsOption(t *testing.T) {
	r := gen.Table7()
	s := r.Schema()
	ods := DiscoverContext(context.Background(), r, Options{Columns: []int{s.MustIndex("nights"), s.MustIndex("subtotal")}}).ODs
	for _, o := range ods {
		for _, m := range append(o.LHS, o.RHS...) {
			if m.Col != s.MustIndex("nights") && m.Col != s.MustIndex("subtotal") {
				t.Errorf("OD %v uses a column outside the restriction", o)
			}
		}
	}
}
