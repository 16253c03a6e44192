// Package portal implements portals, portal graphs and implicit portal
// trees on the triangular grid (paper §2.3, Definition 12), together with
// the portal-tree versions of the tree primitives (§3.5, Lemmas 32–37).
//
// A d-portal is a maximal run of amoebots along axis d. For hole-free
// structures every portal graph is a tree (Lemma 9), and distances satisfy
// 2·dist(u,v) = dist_x(u,v) + dist_y(u,v) + dist_z(u,v) (Lemma 11). The
// amoebots only access the implicit portal tree T: the axis-parallel edges
// plus, between each pair of adjacent portals, the unique crossing edge
// selected by a local rule (the "westernmost" edge for x-portals).
package portal

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"spforest/amoebot"
	"spforest/internal/ett"
)

// Portals is the portal decomposition of a region along one axis.
type Portals struct {
	Axis   amoebot.Axis
	Region *amoebot.Region

	// ID maps each structure node to its portal id (-1 outside the region).
	ID []int32
	// Nbr lists each portal's adjacent portals (ascending ids). The lists
	// are rows of the crossing table's flat neighbor column.
	Nbr [][]int32

	// Portal membership in CSR layout: portal id's amoebots are
	// nodes[off[id]:off[id+1]], in ascending axis order; the first entry is
	// the negative-most amoebot, the portal's representative. One flat
	// array instead of a slice header + allocation per portal — a
	// million-amoebot structure has hundreds of thousands of single-node
	// portals, and the AoS layout paid 24 bytes of header and a cache miss
	// each.
	nodes []int32
	off   []int32

	// treeMask holds, per structure node of the region, the 6-bit set of
	// directions whose edge belongs to the implicit portal tree (bit d set
	// iff IsTreeEdge(u, d)); 0 outside the region. Each (node, direction)
	// is probed once, in Compute, and every view built on the
	// decomposition reads its implicit tree from these masks.
	treeMask []uint8

	// The crossing table: one row per directed pair of adjacent portals,
	// in CSR layout sorted by (from, to). Portal from's rows are
	// cross[xoff[from]:xoff[from+1]], ascending by "to"; each row stores
	// the endpoints of the pair's unique crossing tree edge — u, the
	// connector amoebot in "from", and v, its neighbor in "to" — so Patch
	// remaps surviving rows without re-probing the grid. Nbr[from] is the
	// same rows' "to" column.
	xoff  []int32
	cross []crossRow

	// oldIDof maps each portal id to the id of the identical portal in the
	// pre-patch decomposition, -1 for portals rebuilt from the delta's dirty
	// zone. Only set on decompositions produced by Patch; PatchWholeView
	// uses it to reuse untouched crossing-table columns.
	oldIDof []int32
}

// crossRow is one directed crossing tree edge: u in portal "from", v in
// portal "to".
type crossRow struct {
	to, u, v int32
}

// treeMaskAt returns u's implicit-tree direction mask in the region along
// the axis (Definition 12), probing each of u's six neighbors once:
// axis-parallel edges always belong; on each side, the "minus-ward"
// crossing direction c belongs iff u has no negative axis neighbor, the
// "plus-ward" direction c' iff u has no c-neighbor.
func treeMaskAt(r *amoebot.Region, axis amoebot.Axis, u int32) uint8 {
	var occ uint8
	for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
		if r.Neighbor(u, d) != amoebot.None {
			occ |= 1 << d
		}
	}
	has := func(d amoebot.Direction) bool { return occ>>d&1 != 0 }
	m := occ &^ crossingDirs(axis)
	for side := amoebot.Side(0); side < amoebot.NumSides; side++ {
		c, cp := axis.CrossPair(side)
		if has(c) && !has(axis.Negative()) {
			m |= 1 << c
		}
		if has(cp) && !has(c) {
			m |= 1 << cp
		}
	}
	return m
}

// crossingDirs is the mask of the directions not parallel to the axis.
func crossingDirs(axis amoebot.Axis) uint8 {
	return ^uint8(1<<axis.Positive()|1<<axis.Negative()) & (1<<amoebot.NumDirections - 1)
}

// Compute builds the portal decomposition of the region along the axis.
func Compute(region *amoebot.Region, axis amoebot.Axis) *Portals {
	s := region.Structure()
	members := region.Nodes()
	p := &Portals{
		Axis:     axis,
		Region:   region,
		ID:       make([]int32, s.N()),
		treeMask: make([]uint8, s.N()),
		nodes:    make([]int32, 0, len(members)),
		off:      []int32{0},
	}
	for i := range p.ID {
		p.ID[i] = -1
	}
	for _, u := range members {
		p.treeMask[u] = treeMaskAt(region, axis, u)
	}
	// Runs: a run starts at every amoebot without a negative axis neighbor
	// (axis edges are tree edges exactly when the neighbor exists).
	pos, neg := uint8(1)<<axis.Positive(), uint8(1)<<axis.Negative()
	for _, u := range members {
		if p.treeMask[u]&neg != 0 {
			continue // not the start of a run
		}
		id := int32(len(p.off)) - 1
		for v := u; ; v = s.Neighbor(v, axis.Positive()) {
			p.ID[v] = id
			p.nodes = append(p.nodes, v)
			if p.treeMask[v]&pos == 0 {
				break
			}
		}
		p.off = append(p.off, int32(len(p.nodes)))
	}
	// Crossing edges of the implicit tree give the portal adjacency; an
	// amoebot has at most one per side.
	rows := make([][2]int32, 0, 2*len(members))
	xdirs := crossingDirs(axis)
	for _, u := range members {
		for m := p.treeMask[u] & xdirs; m != 0; m &= m - 1 {
			d := amoebot.Direction(bits.TrailingZeros8(m))
			rows = append(rows, [2]int32{u, s.Neighbor(u, d)})
		}
	}
	p.buildCrossings(rows)
	return p
}

// buildCrossings builds the crossing table and Nbr from the directed
// crossing tree edges (u, v), given in any order: a counting sort by the
// "from" portal ID[u], then a sort of each portal's short row by "to". Two
// edges between the same ordered pair of portals contradict Definition 12
// and panic.
func (p *Portals) buildCrossings(edges [][2]int32) {
	n := p.Len()
	p.xoff = make([]int32, n+1)
	for _, e := range edges {
		p.xoff[p.ID[e[0]]+1]++
	}
	for i := 0; i < n; i++ {
		p.xoff[i+1] += p.xoff[i]
	}
	p.cross = make([]crossRow, len(edges))
	fill := slices.Clone(p.xoff[:n])
	for _, e := range edges {
		from := p.ID[e[0]]
		p.cross[fill[from]] = crossRow{to: p.ID[e[1]], u: e[0], v: e[1]}
		fill[from]++
	}
	nbr := make([]int32, len(edges))
	p.Nbr = make([][]int32, n)
	for from := int32(0); from < int32(n); from++ {
		lo, hi := p.xoff[from], p.xoff[from+1]
		row := p.cross[lo:hi]
		slices.SortFunc(row, func(a, b crossRow) int { return int(a.to - b.to) })
		for i := range row {
			if i > 0 && row[i].to == row[i-1].to {
				panic(fmt.Sprintf("portal: two crossing tree edges between portals %d and %d", from, row[i].to))
			}
			nbr[lo+int32(i)] = row[i].to
		}
		p.Nbr[from] = nbr[lo:hi:hi]
	}
}

// row returns the crossing-table index of the directed pair (from, to),
// or -1 when the portals are not adjacent.
func (p *Portals) row(from, to int32) int32 {
	lo := p.xoff[from]
	if i, ok := slices.BinarySearch(p.Nbr[from], to); ok {
		return lo + int32(i)
	}
	return -1
}

// Len returns the number of portals.
func (p *Portals) Len() int { return len(p.off) - 1 }

// NodesOf returns portal id's amoebots in ascending axis order (a view
// into the shared CSR array; callers must not modify it).
func (p *Portals) NodesOf(id int32) []int32 { return p.nodes[p.off[id]:p.off[id+1]] }

// Rep returns the representative (negative-most amoebot) of the portal.
func (p *Portals) Rep(id int32) int32 { return p.nodes[p.off[id]] }

// Connector returns the amoebot c_{from}(to): the amoebot of portal "from"
// incident to the unique implicit-tree edge towards the adjacent portal
// "to". By construction (Definition 12) it exists and is unique.
func (p *Portals) Connector(from, to int32) int32 {
	i := p.row(from, to)
	if i < 0 {
		panic(fmt.Sprintf("portal: portals %d and %d are not adjacent", from, to))
	}
	return p.cross[i].u
}

// Adjacent reports whether two portals share an implicit-tree edge.
func (p *Portals) Adjacent(a, b int32) bool { return p.row(a, b) >= 0 }

// IsTreeEdge reports whether the edge from u in direction d belongs to the
// implicit portal tree (Definition 12). Axis-parallel edges always belong;
// a crossing edge belongs iff u is the negative-most amoebot of its portal
// (for the "minus-ward" crossing direction c), or u has no c-neighbor (for
// the "plus-ward" direction c' = c + positive). u must be an amoebot of the
// region.
//
// The rule is purely local: u inspects only its own neighborhood.
func (p *Portals) IsTreeEdge(u int32, d amoebot.Direction) bool {
	return p.treeMask[u]>>d&1 != 0
}

// IsPortalGraphTree reports whether the portal graph is a tree (Lemma 9:
// guaranteed for hole-free regions), i.e. connected with Len()-1 adjacent
// pairs.
func (p *Portals) IsPortalGraphTree() bool {
	pairs := 0
	for from := int32(0); from < int32(p.Len()); from++ {
		for _, to := range p.Nbr[from] {
			if from < to {
				pairs++
			}
		}
	}
	if pairs != p.Len()-1 {
		return false
	}
	if p.Len() == 0 {
		return false
	}
	seen := make([]bool, p.Len())
	stack := []int32{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, v := range p.Nbr[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return count == p.Len()
}

// View is a connected sub-set of portals (a subtree of the portal graph)
// on which the §3.5 primitives run. The implicit tree of a view is the
// implicit portal tree restricted to the union of the view's portals.
type View struct {
	P      *Portals
	IDs    []int32 // portal ids in the view, ascending
	inView []bool  // indexed by portal id

	nodes []int32 // union of the portals' amoebots, ascending structure ids
	tree  *ett.Tree
	local rankIndex // structure node -> local index

	// Frozen crossing-edge table, built once per view on first use (see
	// crossings). crossReady is set after the table exists so PatchWholeView
	// can observe — without racing the once — whether the parent view ever
	// materialized its table and is worth migrating.
	crossOnce  sync.Once
	cross      *crossTab
	crossReady atomic.Bool

	// Canonical Euler tours of the implicit tree, memoized per root local
	// index (see TourAt). Bounded; guarded by tourMu.
	tourMu sync.Mutex
	tours  map[int32]*ett.Tour
}

// maxTourMemo bounds the per-view tour memo. Whole-structure views see one
// root per query leader; sub-views of the centroid decomposition see one.
const maxTourMemo = 8

// TourAt returns the canonical Euler tour of the view's implicit tree
// rooted at the given local index, memoizing a bounded number of roots.
// When any root's tour is already cached, a new root is derived from it by
// rotation (Tour.Rerooted) — byte-identical to BuildTour, without the
// pointer-chasing walk. Returned tours are shared and must not be mutated.
func (v *View) TourAt(root int32) *ett.Tour {
	v.tourMu.Lock()
	if t, ok := v.tours[root]; ok {
		v.tourMu.Unlock()
		return t
	}
	var seed *ett.Tour
	for _, t := range v.tours {
		seed = t
		break
	}
	v.tourMu.Unlock()
	var t *ett.Tour
	if seed != nil {
		t = seed.Rerooted(root)
	} else {
		t = ett.BuildTour(v.tree, root)
	}
	v.tourMu.Lock()
	defer v.tourMu.Unlock()
	if prev, ok := v.tours[root]; ok {
		return prev // a concurrent builder won; results are identical
	}
	if v.tours == nil {
		v.tours = make(map[int32]*ett.Tour)
	}
	if len(v.tours) < maxTourMemo {
		v.tours[root] = t
	}
	return t
}

// WholeView returns the view containing every portal. Its nodes are the
// region's, already ascending.
func (p *Portals) WholeView() *View {
	ids := make([]int32, p.Len())
	inView := make([]bool, p.Len())
	for i := range ids {
		ids[i] = int32(i)
		inView[i] = true
	}
	nodes := p.Region.Nodes()
	return p.newView(ids, inView, nodes, newRankIndex(nodes))
}

// SubView builds the view of the given portals (which must induce a
// connected subtree of the portal graph).
func (p *Portals) SubView(ids []int32) *View {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	inView := make([]bool, p.Len())
	size := 0
	for _, id := range ids {
		inView[id] = true
		size += int(p.off[id+1] - p.off[id])
	}
	// The rank index's bitset enumerates the union of the portals' runs in
	// ascending order, so the node list needs no sort.
	members := make([]int32, 0, size)
	for _, id := range ids {
		members = append(members, p.NodesOf(id)...)
	}
	local := newRankIndex(members)
	return p.newView(ids, inView, local.members(members[:0]), local)
}

// newView assembles a view over its ascending node list and builds the
// implicit tree restricted to it: axis edges within portals plus crossing
// edges between view portals, in CCW direction order. Each node's tree
// mask is filtered to the view once; both passes of the flat (CSR)
// neighbor array — counting, then filling — read the filtered masks.
func (p *Portals) newView(ids []int32, inView []bool, nodes []int32, local rankIndex) *View {
	v := &View{P: p, IDs: ids, inView: inView, nodes: nodes, local: local}
	s := p.Region.Structure()
	masks := make([]uint8, len(nodes))
	deg := make([]int32, len(nodes)+1)
	for li, g := range nodes {
		m := p.treeMask[g]
		for rest := m; rest != 0; rest &= rest - 1 {
			d := amoebot.Direction(bits.TrailingZeros8(rest))
			if !inView[p.ID[s.Neighbor(g, d)]] {
				m &^= 1 << d
			}
		}
		masks[li] = m
		deg[li+1] = deg[li] + int32(bits.OnesCount8(m))
	}
	flat := make([]int32, deg[len(nodes)])
	nbrs := make([][]int32, len(nodes))
	for li, g := range nodes {
		c := deg[li]
		for m := masks[li]; m != 0; m &= m - 1 {
			flat[c] = v.Local(s.Neighbor(g, amoebot.Direction(bits.TrailingZeros8(m))))
			c++
		}
		nbrs[li] = flat[deg[li]:c:c]
	}
	v.tree = ett.MustTree(nbrs)
	return v
}

// Contains reports whether the portal belongs to the view.
func (v *View) Contains(id int32) bool { return v.inView[id] }

// Nodes returns the structure node ids of the view's amoebots, ascending.
func (v *View) Nodes() []int32 { return v.nodes }

// Tree returns the implicit portal tree of the view over local indices.
func (v *View) Tree() *ett.Tree { return v.tree }

// Local returns the local index of a structure node in the view. The node
// must belong to the view.
func (v *View) Local(g int32) int32 { return v.local.rank(g) }

// Global returns the structure node id of a local index.
func (v *View) Global(l int32) int32 { return v.nodes[l] }

// crossTab is the frozen circuit table of a view's directed crossing
// edges, in SoA layout: row i is the crossing edge from[i] → to[i],
// operated by the connector amoebot at local index local[i] via neighbor
// ordinal ord[i] of the implicit tree. The table is a pure function of the
// view, so it is resolved once (the rank lookups and neighbor scans of
// crossingOrdinal) and every primitive execution on the view —
// every root-and-prune of every query sharing the decomposition — streams
// over the same frozen rows, exactly like re-beeping an already
// constructed circuit instead of rebuilding it.
type crossTab struct {
	from, to []int32
	local    []int32
	ord      []int32
}

// crossings returns the view's frozen crossing-edge table, building it on
// first use. Rows are ordered by (ascending portal id, ascending neighbor
// id) — the decomposition's crossing-table order, filtered to the view —
// so results are bit-identical to the unfrozen path.
func (v *View) crossings() *crossTab {
	v.crossOnce.Do(func() {
		// The view portals' rows, before the filter to view neighbors,
		// bound the table's length.
		rows := 0
		for _, p1 := range v.IDs {
			rows += int(v.P.xoff[p1+1] - v.P.xoff[p1])
		}
		ct := &crossTab{
			from:  make([]int32, 0, rows),
			to:    make([]int32, 0, rows),
			local: make([]int32, 0, rows),
			ord:   make([]int32, 0, rows),
		}
		for _, p1 := range v.IDs {
			for i := v.P.xoff[p1]; i < v.P.xoff[p1+1]; i++ {
				r := v.P.cross[i]
				if !v.inView[r.to] {
					continue
				}
				lu, ord := v.crossingOrdinal(r)
				ct.from = append(ct.from, p1)
				ct.to = append(ct.to, r.to)
				ct.local = append(ct.local, lu)
				ct.ord = append(ct.ord, int32(ord))
			}
		}
		v.cross = ct
		v.crossReady.Store(true)
	})
	return v.cross
}

// crossingOrdinal returns, for a crossing-table row between view portals,
// the local index of its connector and the neighbor ordinal of the edge
// within the implicit tree.
func (v *View) crossingOrdinal(r crossRow) (local int32, ord int) {
	lu, lw := v.Local(r.u), v.Local(r.v)
	for j, x := range v.tree.Neighbors[lu] {
		if x == lw {
			return lu, j
		}
	}
	panic("portal: crossing edge missing from view tree")
}

// rankIndex maps the members of an ascending node set to their ranks
// (local indices) without hashing: a bitset over the words the set spans
// plus, per word, the number of members in the words before it. A lookup
// is two loads and a popcount; the index costs 12 bytes per 64-node span.
type rankIndex struct {
	base int32    // index of the first word covered
	bits []uint64 // membership, word i covers nodes (base+i)·64 ...
	pre  []int32  // members in the words before word i
}

// newRankIndex builds the rank index of a node set given in any order.
func newRankIndex(nodes []int32) rankIndex {
	if len(nodes) == 0 {
		return rankIndex{}
	}
	lo, hi := nodes[0], nodes[0]
	for _, g := range nodes {
		lo, hi = min(lo, g), max(hi, g)
	}
	ri := rankIndex{base: lo >> 6}
	words := int(hi>>6-ri.base) + 1
	ri.bits = make([]uint64, words)
	ri.pre = make([]int32, words)
	for _, g := range nodes {
		ri.bits[g>>6-ri.base] |= 1 << (g & 63)
	}
	c := int32(0)
	for i, w := range ri.bits {
		ri.pre[i] = c
		c += int32(bits.OnesCount64(w))
	}
	return ri
}

// rank returns the number of members below g; for a member, its index in
// the ascending node order.
func (ri *rankIndex) rank(g int32) int32 {
	w := g>>6 - ri.base
	return ri.pre[w] + int32(bits.OnesCount64(ri.bits[w]&(1<<(g&63)-1)))
}

// members appends the set's nodes in ascending order to dst.
func (ri *rankIndex) members(dst []int32) []int32 {
	for i, w := range ri.bits {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, (ri.base+int32(i))<<6+int32(bits.TrailingZeros64(w)))
		}
	}
	return dst
}
