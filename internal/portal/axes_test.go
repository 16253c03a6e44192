package portal

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// The main primitive tests run on x-portals; these repeat the core checks
// on the other two axes (the constructions must be fully axis-symmetric).

func TestRootPruneAllAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 15; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(150))
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			p := Compute(amoebot.WholeRegion(s), axis)
			inQ := make([]bool, p.Len())
			sizeQ := 0
			for i := range inQ {
				if rng.Intn(3) == 0 {
					inQ[i] = true
					sizeQ++
				}
			}
			root := int32(rng.Intn(p.Len()))
			var clock sim.Clock
			rp := RootPrune(&clock, p.WholeView(), root, inQ)
			if rp.QSize != uint64(sizeQ) {
				t.Fatalf("trial %d axis %v: QSize %d want %d", trial, axis, rp.QSize, sizeQ)
			}
			parent, subQ := bruteRootedPortals(p, root, inQ)
			for id := int32(0); id < int32(p.Len()); id++ {
				if rp.InVQ[id] != (subQ[id] > 0) {
					t.Fatalf("trial %d axis %v: InVQ[%d] wrong", trial, axis, id)
				}
				if subQ[id] > 0 && id != root && rp.Parent[id] != parent[id] {
					t.Fatalf("trial %d axis %v: parent[%d] wrong", trial, axis, id)
				}
			}
		}
	}
}

func TestElectAndCentroidsAllAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	for trial := 0; trial < 10; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(120))
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			p := Compute(amoebot.WholeRegion(s), axis)
			v := p.WholeView()
			inQ := make([]bool, p.Len())
			any := false
			for i := range inQ {
				if rng.Intn(2) == 0 {
					inQ[i] = true
					any = true
				}
			}
			root := int32(rng.Intn(p.Len()))
			var clock sim.Clock
			elected := ElectPortal(&clock, v, root, inQ)
			if any && (elected < 0 || !inQ[elected]) {
				t.Fatalf("trial %d axis %v: elected %d", trial, axis, elected)
			}
			got := Centroids(&clock, v, root, inQ)
			want := brutePortalCentroids(p, v, inQ)
			for id := 0; id < p.Len(); id++ {
				if got.IsCentroid[id] != want[id] {
					t.Fatalf("trial %d axis %v: centroid[%d] wrong", trial, axis, id)
				}
			}
		}
	}
}

// TestLemma13Separation: removing a portal separates the structure such
// that every remaining component is adjacent to the portal from exactly one
// side (the property the propagation algorithm's side classification relies
// on).
func TestLemma13Separation(t *testing.T) {
	rng := rand.New(rand.NewSource(217))
	for trial := 0; trial < 20; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(250))
		region := amoebot.WholeRegion(s)
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			p := Compute(region, axis)
			pid := int32(rng.Intn(p.Len()))
			inP := map[int32]bool{}
			for _, u := range p.NodesOf(pid) {
				inP[u] = true
			}
			rest := region.Filter(func(i int32) bool { return !inP[i] })
			if len(rest) == 0 {
				continue
			}
			for _, comp := range amoebot.NewRegion(s, rest).Components() {
				sides := map[amoebot.Side]bool{}
				adjacent := false
				for _, u := range p.NodesOf(pid) {
					for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
						if d.Axis() == axis {
							continue
						}
						v := region.Neighbor(u, d)
						if v == amoebot.None || !comp.Contains(v) {
							continue
						}
						side, _ := axis.SideOf(d)
						sides[side] = true
						adjacent = true
					}
				}
				if !adjacent {
					t.Fatalf("trial %d axis %v: component not adjacent to removed portal", trial, axis)
				}
				if len(sides) != 1 {
					t.Fatalf("trial %d axis %v: component touches portal from %d sides", trial, axis, len(sides))
				}
			}
		}
	}
}

// TestSubViewOnSubtrees: decomposition-style sub-views must keep the
// implicit tree consistent (connectors, reps, crossing ordinals).
func TestSubViewOnSubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(219))
	s := shapes.RandomBlob(rng, 300)
	p := Compute(amoebot.WholeRegion(s), amoebot.AxisX)
	if p.Len() < 4 {
		t.Skip("blob too flat")
	}
	// Take the subtree hanging off portal 0's first neighbor.
	root := int32(0)
	start := p.Nbr[root][0]
	seen := map[int32]bool{root: true, start: true}
	ids := []int32{start}
	stack := []int32{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range p.Nbr[u] {
			if !seen[v] {
				seen[v] = true
				ids = append(ids, v)
				stack = append(stack, v)
			}
		}
	}
	v := p.SubView(ids)
	if v.Tree().Len() != len(v.Nodes()) {
		t.Fatal("subview tree size mismatch")
	}
	for _, a := range ids {
		for _, b := range p.Nbr[a] {
			if !v.Contains(b) {
				continue
			}
			lu, ord := v.crossingOrdinal(p.cross[p.row(a, b)])
			if v.Global(v.Tree().Neighbors[lu][ord]) != p.Connector(b, a) {
				t.Fatal("crossing ordinal inconsistent in subview")
			}
		}
	}
}
