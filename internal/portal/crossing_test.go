package portal

import (
	"math/rand"
	"slices"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
)

// refTreeEdge is the implicit-tree rule of Definition 12 probed directly on
// the region, direction by direction.
func refTreeEdge(r *amoebot.Region, axis amoebot.Axis, u int32, d amoebot.Direction) bool {
	if r.Neighbor(u, d) == amoebot.None {
		return false
	}
	if d.Axis() == axis {
		return true
	}
	side, _ := axis.SideOf(d)
	c, cp := axis.CrossPair(side)
	switch d {
	case c:
		return r.Neighbor(u, axis.Negative()) == amoebot.None
	case cp:
		return r.Neighbor(u, c) == amoebot.None
	}
	return false
}

// checkCrossingTable compares the decomposition's crossing table against a
// reference hash map from each directed adjacent portal pair to its
// connector, probed rule by rule on the region, through every accessor:
// IsTreeEdge, Nbr, Connector, Adjacent and IsPortalGraphTree.
func checkCrossingTable(t *testing.T, p *Portals, ctx string) {
	t.Helper()
	r, s := p.Region, p.Region.Structure()
	conn := make(map[[2]int32]int32)
	for _, u := range r.Nodes() {
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			want := refTreeEdge(r, p.Axis, u, d)
			if p.IsTreeEdge(u, d) != want {
				t.Fatalf("%s: IsTreeEdge(%d, %v) = %v, want %v", ctx, u, d, !want, want)
			}
			if !want || d.Axis() == p.Axis {
				continue
			}
			key := [2]int32{p.ID[u], p.ID[r.Neighbor(u, d)]}
			if _, dup := conn[key]; dup {
				t.Fatalf("%s: reference saw two crossing edges for %v", ctx, key)
			}
			conn[key] = u
		}
	}
	nbr := make([][]int32, p.Len())
	for key := range conn {
		nbr[key[0]] = append(nbr[key[0]], key[1])
	}
	pairs := 0
	for a := int32(0); a < int32(p.Len()); a++ {
		slices.Sort(nbr[a])
		if !slices.Equal(p.Nbr[a], nbr[a]) {
			t.Fatalf("%s: Nbr[%d] = %v, want %v", ctx, a, p.Nbr[a], nbr[a])
		}
		for _, b := range nbr[a] {
			if got := p.Connector(a, b); got != conn[[2]int32{a, b}] {
				t.Fatalf("%s: Connector(%d,%d) = %d, want %d", ctx, a, b, got, conn[[2]int32{a, b}])
			}
			if a < b {
				pairs++
			}
		}
		for b := int32(0); b < int32(p.Len()); b++ {
			_, want := conn[[2]int32{a, b}]
			if p.Adjacent(a, b) != want {
				t.Fatalf("%s: Adjacent(%d,%d) = %v, want %v", ctx, a, b, !want, want)
			}
		}
	}
	// Tree: Len()-1 adjacent pairs and connected.
	wantTree := p.Len() > 0 && pairs == p.Len()-1
	if wantTree {
		seen := map[int32]bool{0: true}
		stack := []int32{0}
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, b := range nbr[a] {
				if !seen[b] {
					seen[b] = true
					stack = append(stack, b)
				}
			}
		}
		wantTree = len(seen) == p.Len()
	}
	if p.IsPortalGraphTree() != wantTree {
		t.Fatalf("%s: IsPortalGraphTree = %v, want %v (n=%d)", ctx, !wantTree, wantTree, s.N())
	}
}

// randomSubRegion returns a connected sub-region of the structure grown
// breadth-first from a random node; it may enclose holes.
func randomSubRegion(rng *rand.Rand, s *amoebot.Structure) *amoebot.Region {
	whole := amoebot.WholeRegion(s)
	size := 1 + rng.Intn(s.N())
	start := int32(rng.Intn(s.N()))
	seen := map[int32]bool{start: true}
	nodes := []int32{start}
	for i := 0; i < len(nodes) && len(nodes) < size; i++ {
		for _, d := range rng.Perm(int(amoebot.NumDirections)) {
			if v := whole.Neighbor(nodes[i], amoebot.Direction(d)); v != amoebot.None && !seen[v] && len(nodes) < size {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	return amoebot.NewRegion(s, nodes)
}

// TestCrossingTableMatchesMapReference checks the CSR crossing table on
// whole structures and random sub-regions along all three axes.
func TestCrossingTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trees := 0
	for trial := 0; trial < 30; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(300))
		regions := []*amoebot.Region{amoebot.WholeRegion(s), randomSubRegion(rng, s), randomSubRegion(rng, s)}
		for _, r := range regions {
			for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
				p := Compute(r, axis)
				checkCrossingTable(t, p, "Compute")
				if p.IsPortalGraphTree() {
					trees++
				}
			}
		}
	}
	if trees == 0 {
		t.Fatal("no portal graph was a tree")
	}
}

// TestCrossingTableOfPatches checks the crossing tables Patch builds by
// migrating rows, along chains of random deltas.
func TestCrossingTableOfPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 8; trial++ {
		s := shapes.RandomBlob(rng, 60+rng.Intn(150))
		var cur [amoebot.NumAxes]*Portals
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			cur[axis] = Compute(amoebot.WholeRegion(s), axis)
		}
		for step := 0; step < 5; step++ {
			d := shapes.RandomDelta(rng, s, 1+rng.Intn(6), 1+rng.Intn(6))
			if d.IsEmpty() {
				continue
			}
			ns, err := s.Apply(d)
			if err != nil {
				t.Fatalf("trial %d step %d: apply: %v", trial, step, err)
			}
			sp := specFor(s, ns, d)
			for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
				cur[axis] = cur[axis].Patch(sp)
				checkCrossingTable(t, cur[axis], "Patch")
			}
			s = ns
		}
	}
}

// TestRankIndexMatchesDenseLocal checks the views' rank index against a
// dense node -> local table on sparse sub-views (portal subtrees) and on
// whole views of sub-regions.
func TestRankIndexMatchesDenseLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sparse := 0
	for trial := 0; trial < 20; trial++ {
		s := shapes.RandomBlob(rng, 100+rng.Intn(400))
		p := Compute(amoebot.WholeRegion(s), amoebot.Axis(trial%int(amoebot.NumAxes)))
		views := []*View{p.WholeView()}
		if sub := Compute(randomSubRegion(rng, s), amoebot.AxisX); sub.IsPortalGraphTree() {
			views = append(views, sub.WholeView())
		}
		// Sub-views of the subtrees hanging off a random portal.
		removed := int32(rng.Intn(p.Len()))
		for _, comp := range splitPortalTree(p.WholeView(), removed) {
			views = append(views, p.SubView(comp.ids))
		}
		for _, v := range views {
			dense := make([]int32, s.N())
			for i := range dense {
				dense[i] = -1
			}
			for li, g := range v.Nodes() {
				dense[g] = int32(li)
			}
			if !slices.IsSorted(v.Nodes()) {
				t.Fatalf("trial %d: view nodes not ascending", trial)
			}
			for _, g := range v.Nodes() {
				if v.Local(g) != dense[g] || v.Global(v.Local(g)) != g {
					t.Fatalf("trial %d: Local(%d) = %d, dense table says %d", trial, g, v.Local(g), dense[g])
				}
			}
			if 4*len(v.Nodes()) < s.N() {
				sparse++
			}
		}
	}
	if sparse == 0 {
		t.Fatal("no sparse view checked")
	}
}
