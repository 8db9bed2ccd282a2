package tane

import (
	"context"
	"math/rand"
	"testing"

	"deptree/internal/attrset"
	"deptree/internal/deps/fd"
	"deptree/internal/discovery/fastfd"
)

// TestDiscoveryRecoversArmstrongCover closes the inference↔discovery loop:
// running TANE (and FastFD) on an Armstrong relation for Σ recovers an FD
// set equivalent to Σ.
func TestDiscoveryRecoversArmstrongCover(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		n := 4
		var sigma []fd.FD
		for k := 0; k < 3; k++ {
			lhs := attrset.Set(rng.Intn(1<<n) | (1 << rng.Intn(n)))
			rhs := attrset.Single(rng.Intn(n))
			if rhs.SubsetOf(lhs) {
				continue
			}
			sigma = append(sigma, fd.FD{LHS: lhs, RHS: rhs})
		}
		r, err := fd.ArmstrongRelation(n, sigma)
		if err != nil {
			t.Fatal(err)
		}
		discovered := DiscoverContext(context.Background(), r, Options{}).FDs
		if !fd.Equivalent(discovered, sigma) {
			t.Fatalf("trial %d: TANE cover %v not equivalent to Σ %v", trial, discovered, sigma)
		}
		discovered2 := fastfd.DiscoverContext(context.Background(), r, fastfd.Options{}).FDs
		if !fd.Equivalent(discovered2, sigma) {
			t.Fatalf("trial %d: FastFD cover %v not equivalent to Σ %v", trial, discovered2, sigma)
		}
	}
}
