package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/core"
	"spforest/internal/portal"
	"spforest/internal/scenario"
	"spforest/internal/shapes"
)

// referenceVisibility is visibility by definition: decompose P ∪ B into
// y- and z-portals; an amoebot is visible along an axis iff its portal
// contains a P amoebot.
func referenceVisibility(s *amoebot.Structure, pnodes, b []int32) (visY, visZ []bool) {
	pb := amoebot.NewRegion(s, append(append([]int32{}, pnodes...), b...))
	vis := func(axis amoebot.Axis) []bool {
		ports := portal.Compute(pb, axis)
		hasP := make([]bool, ports.Len())
		for _, p := range pnodes {
			hasP[ports.ID[p]] = true
		}
		out := make([]bool, len(b))
		for i, u := range b {
			out[i] = hasP[ports.ID[u]]
		}
		return out
	}
	return vis(amoebot.AxisY), vis(amoebot.AxisZ)
}

// checkVisibility compares the run-labelling visibility against the
// decomposition-based reference for every x-portal of the structure and
// both of its sides.
func checkVisibility(t *testing.T, name string, s *amoebot.Structure) {
	t.Helper()
	region := amoebot.WholeRegion(s)
	ports := portal.Compute(region, amoebot.AxisX)
	checked := 0
	for id := int32(0); id < int32(ports.Len()); id++ {
		pnodes := ports.NodesOf(id)
		for _, side := range []amoebot.Side{amoebot.SideA, amoebot.SideB} {
			b, visY, visZ := core.SideVisibility(region, pnodes, side)
			wantY, wantZ := referenceVisibility(s, pnodes, b)
			for i, u := range b {
				if visY[i] != wantY[i] || visZ[i] != wantZ[i] {
					t.Fatalf("%s portal %d side %v node %d: visible (y,z) = (%v,%v), reference (%v,%v)",
						name, id, side, u, visY[i], visZ[i], wantY[i], wantZ[i])
				}
			}
			checked += len(b)
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no B amoebot checked", name)
	}
}

// TestVisibilityMatchesPortalDecompositions pins the phase-1 run sweep of
// Propagate to the portal-decomposition definition, on the hole-free
// registry scenarios and on random blobs.
func TestVisibilityMatchesPortalDecompositions(t *testing.T) {
	for _, sc := range scenario.HoleFree() {
		checkVisibility(t, sc.Name, sc.S)
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		checkVisibility(t, fmt.Sprintf("blob trial %d", trial), shapes.RandomBlob(rng, 40+rng.Intn(300)))
	}
}
