// Package shapes generates amoebot structures used as workloads by tests,
// examples and the benchmark harness.
//
// Generators default to connected, hole-free structures (the paper's
// preconditions); tests validate this property for every such generator.
// Structures with holes — outside the portal algorithms' preconditions but
// valid inputs for the hole-tolerant baselines — are produced only by the
// explicitly-named holed generators (RandomHoledBlob, PunchHoles); see also
// the internal/scenario registry built on top of this package.
package shapes

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"spforest/amoebot"
)

// Line returns n amoebots in a single row (the structure of §5.1).
func Line(n int) *amoebot.Structure {
	cs := make([]amoebot.Coord, n)
	for i := range cs {
		cs[i] = amoebot.XZ(i, 0)
	}
	return amoebot.MustStructure(cs)
}

// Parallelogram returns a w×h parallelogram (w amoebots per row, h rows).
func Parallelogram(w, h int) *amoebot.Structure {
	cs := make([]amoebot.Coord, 0, w*h)
	for z := 0; z < h; z++ {
		for x := 0; x < w; x++ {
			cs = append(cs, amoebot.XZ(x, z))
		}
	}
	return amoebot.MustStructure(cs)
}

// Hexagon returns the ball of the given radius around the origin:
// 1 + 3r(r+1) amoebots.
func Hexagon(radius int) *amoebot.Structure {
	var cs []amoebot.Coord
	origin := amoebot.Coord{}
	for z := -radius; z <= radius; z++ {
		for x := -radius - radius; x <= radius+radius; x++ {
			c := amoebot.XZ(x, z)
			if origin.Dist(c) <= radius {
				cs = append(cs, c)
			}
		}
	}
	return amoebot.MustStructure(cs)
}

// Triangle returns an upward triangle with the given side length (rows of
// side, side-1, ..., 1 amoebots).
func Triangle(side int) *amoebot.Structure {
	var cs []amoebot.Coord
	for z := 0; z < side; z++ {
		for x := 0; x < side-z; x++ {
			cs = append(cs, amoebot.XZ(x, z))
		}
	}
	return amoebot.MustStructure(cs)
}

// Comb returns a comb: a horizontal spine with vertical teeth hanging south,
// one tooth every second column. Combs have diameter Θ(teeth·toothLen /
// (teeth+toothLen))·... in practice ≈ 2·toothLen + 2·teeth: a long-diameter,
// many-portal stress shape for the baselines and the portal machinery.
func Comb(teeth, toothLen int) *amoebot.Structure {
	var cs []amoebot.Coord
	width := 2*teeth - 1
	for x := 0; x < width; x++ {
		cs = append(cs, amoebot.XZ(x, 0))
	}
	for tooth := 0; tooth < teeth; tooth++ {
		x := 2 * tooth
		for z := 1; z <= toothLen; z++ {
			cs = append(cs, amoebot.XZ(x, z))
		}
	}
	return amoebot.MustStructure(cs)
}

// Staircase returns a diagonal staircase of the given number of steps, each
// step a stepW×stepH parallelogram overlapping the next: a shape whose
// portal trees have long paths on all three axes.
func Staircase(steps, stepW, stepH int) *amoebot.Structure {
	seen := make(map[amoebot.Coord]bool)
	var cs []amoebot.Coord
	for st := 0; st < steps; st++ {
		ox, oz := st*(stepW-1), st*stepH
		for z := 0; z <= stepH; z++ {
			for x := 0; x < stepW; x++ {
				c := amoebot.XZ(ox+x, oz+z)
				if !seen[c] {
					seen[c] = true
					cs = append(cs, c)
				}
			}
		}
	}
	return amoebot.MustStructure(cs)
}

// RandomBlob grows a random connected structure of roughly targetN amoebots
// inside a (2·targetN)²-bounded box and then fills every hole, yielding a
// connected hole-free blob with irregular boundary (multiple portals per
// row). The result has at least targetN amoebots.
//
// RandomBlob is guaranteed to stay hole-free: existing callers rely on its
// output satisfying the paper's preconditions unconditionally. Workloads
// that want random structures with holes use RandomHoledBlob instead.
func RandomBlob(rng *rand.Rand, targetN int) *amoebot.Structure {
	if targetN < 1 {
		targetN = 1
	}
	occupied := map[amoebot.Coord]bool{{}: true}
	frontier := []amoebot.Coord{{}}
	for len(occupied) < targetN && len(frontier) > 0 {
		// Pick a random frontier cell and occupy a random empty neighbor.
		i := rng.Intn(len(frontier))
		c := frontier[i]
		var empty []amoebot.Coord
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if n := c.Neighbor(d); !occupied[n] {
				empty = append(empty, n)
			}
		}
		if len(empty) == 0 {
			frontier[i] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			continue
		}
		n := empty[rng.Intn(len(empty))]
		occupied[n] = true
		frontier = append(frontier, n)
	}
	return fillHoles(occupied)
}

// fillHoles adds every complement cell not connected to the outside of the
// bounding box, producing a hole-free structure.
func fillHoles(occupied map[amoebot.Coord]bool) *amoebot.Structure {
	minX, maxX, minZ, maxZ := 1<<30, -(1 << 30), 1<<30, -(1 << 30)
	for c := range occupied {
		if c.X < minX {
			minX = c.X
		}
		if c.X > maxX {
			maxX = c.X
		}
		if c.Z < minZ {
			minZ = c.Z
		}
		if c.Z > maxZ {
			maxZ = c.Z
		}
	}
	minX, maxX, minZ, maxZ = minX-1, maxX+1, minZ-1, maxZ+1
	outside := make(map[amoebot.Coord]bool)
	stack := []amoebot.Coord{amoebot.XZ(minX, minZ)}
	outside[amoebot.XZ(minX, minZ)] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			n := c.Neighbor(d)
			if n.X < minX || n.X > maxX || n.Z < minZ || n.Z > maxZ {
				continue
			}
			if occupied[n] || outside[n] {
				continue
			}
			outside[n] = true
			stack = append(stack, n)
		}
	}
	var cs []amoebot.Coord
	for z := minZ; z <= maxZ; z++ {
		for x := minX; x <= maxX; x++ {
			c := amoebot.XZ(x, z)
			if occupied[c] || (!outside[c] && x > minX && x < maxX && z > minZ && z < maxZ) {
				cs = append(cs, c)
			}
		}
	}
	return amoebot.MustStructure(cs)
}

// RandomHoledBlob grows a random connected blob of at least targetN
// amoebots with exactly the requested number of holes, each a single
// enclosed cell. The blob is grown and filled like RandomBlob and then
// punched with PunchHoles; if the blob is too stringy to host that many
// single-cell holes it is dilated (every empty neighbor of the boundary is
// occupied, holes re-filled) until enough interior cells exist. The result
// is connected with Holes() == holes.
func RandomHoledBlob(rng *rand.Rand, targetN, holes int) *amoebot.Structure {
	s := RandomBlob(rng, targetN)
	for {
		if ns, err := PunchHoles(rng, s, holes); err == nil {
			return ns
		}
		s = FillHoles(Dilate(s))
	}
}

// PunchHoles removes k pairwise non-adjacent interior cells (cells with all
// six neighbors occupied) from s, each becoming a single-cell hole: the
// result is connected with Holes() == s.Holes() + k. Removing an interior
// cell can never disconnect the structure (its six neighbors form a cycle)
// or touch another hole (all its neighbors are occupied, so the vacated
// cell is its own enclosed complement component). The candidate order is
// shuffled by rng; an error is returned when fewer than k interior cells
// can be punched.
func PunchHoles(rng *rand.Rand, s *amoebot.Structure, k int) (*amoebot.Structure, error) {
	occupied := make(map[amoebot.Coord]bool, s.N())
	for _, c := range s.Coords() {
		occupied[c] = true
	}
	punched := 0
	for _, idx := range rng.Perm(s.N()) {
		if punched == k {
			break
		}
		c := s.Coord(int32(idx))
		interior := true
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if !occupied[c.Neighbor(d)] {
				interior = false
				break
			}
		}
		if !interior {
			continue
		}
		delete(occupied, c)
		punched++
	}
	if punched < k {
		return nil, fmt.Errorf("shapes: only %d of %d holes could be punched into %d amoebots",
			punched, k, s.N())
	}
	cs := make([]amoebot.Coord, 0, len(occupied))
	for c := range occupied {
		cs = append(cs, c)
	}
	return amoebot.MustStructure(cs), nil
}

// FillHoles returns the hole-free closure of s: every enclosed complement
// cell is occupied. A hole-free structure is returned unchanged (up to
// reconstruction). The closure of a connected structure is connected, so
// the result always satisfies the paper's preconditions.
func FillHoles(s *amoebot.Structure) *amoebot.Structure {
	occupied := make(map[amoebot.Coord]bool, s.N())
	for _, c := range s.Coords() {
		occupied[c] = true
	}
	return fillHoles(occupied)
}

// Dilate occupies every empty neighbor of the structure — one step of
// morphological thickening, growing stringy shapes toward ones with
// interior cells. Dilation can close gaps into holes; callers that need
// the paper's preconditions compose with FillHoles.
func Dilate(s *amoebot.Structure) *amoebot.Structure {
	occupied := make(map[amoebot.Coord]bool, 2*s.N())
	var cs []amoebot.Coord
	add := func(c amoebot.Coord) {
		if !occupied[c] {
			occupied[c] = true
			cs = append(cs, c)
		}
	}
	for _, c := range s.Coords() {
		add(c)
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			add(c.Neighbor(d))
		}
	}
	return amoebot.MustStructure(cs)
}

// RandomDelta returns a validity-preserving random delta of up to the
// requested number of additions and removals: every cell is chosen by the
// single-arc local rule (see amoebot.NeighborArcs), so applying the delta
// to s always yields a connected hole-free structure. Protected
// coordinates are never removed. A delta smaller than requested (possibly
// empty) is returned when no suitable cells are found.
func RandomDelta(rng *rand.Rand, s *amoebot.Structure, adds, removes int, protect ...amoebot.Coord) amoebot.Delta {
	occupied := make(map[amoebot.Coord]bool, s.N())
	cells := s.Coords()
	for _, c := range cells {
		occupied[c] = true
	}
	prot := make(map[amoebot.Coord]bool, len(protect))
	for _, c := range protect {
		prot[c] = true
	}
	occ := func(c amoebot.Coord) bool { return occupied[c] }
	mutable := func(c amoebot.Coord) bool {
		deg, arcs := amoebot.NeighborArcs(occ, c)
		return deg >= 1 && deg <= 5 && arcs == 1
	}
	for op := 0; op < adds+removes; op++ {
		doAdd := op < adds
		for attempt := 0; attempt < 32; attempt++ {
			j := rng.Intn(len(cells))
			if doAdd {
				c := cells[j].Neighbor(amoebot.Direction(rng.Intn(int(amoebot.NumDirections))))
				if occupied[c] || !mutable(c) {
					continue
				}
				occupied[c] = true
				cells = append(cells, c)
			} else {
				c := cells[j]
				if prot[c] || len(cells) <= 1 || !mutable(c) {
					continue
				}
				occupied[c] = false
				cells[j] = cells[len(cells)-1]
				cells = cells[:len(cells)-1]
			}
			break
		}
	}
	// Additions in canonical row-major order (by Z, then X), so equal seeds
	// give element-for-element equal deltas in every process; ranging over
	// the occupancy map would list them in a random order.
	var d amoebot.Delta
	for _, c := range cells {
		if !s.Occupied(c) {
			d.Add = append(d.Add, c)
		}
	}
	slices.SortFunc(d.Add, func(a, b amoebot.Coord) int {
		return cmp.Or(cmp.Compare(a.Z, b.Z), cmp.Compare(a.X, b.X))
	})
	for _, c := range s.Coords() {
		if !occupied[c] {
			d.Remove = append(d.Remove, c)
		}
	}
	return d
}

// DirectedDelta returns a validity-preserving delta that moves the
// structure along dir, in the style of the joint-movement reconfiguration
// workloads: cells are added on the leading boundary (highest projection
// onto dir first) and removed from the trailing boundary (lowest
// projection first), every cell still chosen by the same single-arc local
// rule as RandomDelta so the result stays connected and hole-free. With
// tail=true the additions instead extend the current leading tip cell,
// growing a thin tail along dir. The rng only breaks ties between cells
// of equal projection. Protected coordinates are never removed; a delta
// smaller than requested (possibly empty) is returned when no suitable
// cells exist.
func DirectedDelta(rng *rand.Rand, s *amoebot.Structure, dir amoebot.Direction, adds, removes int, tail bool, protect ...amoebot.Coord) amoebot.Delta {
	// Occupancy is s plus a small overlay, so the call costs one pass over
	// the precomputed adjacency (candidate seeding below) plus work
	// proportional to the boundary — not O(n) per picked cell; E18 runs
	// this at million-amoebot scale.
	changes := make(map[amoebot.Coord]bool, adds+removes)
	occ := func(c amoebot.Coord) bool {
		if v, ok := changes[c]; ok {
			return v
		}
		return s.Occupied(c)
	}
	mutable := func(c amoebot.Coord) bool {
		deg, arcs := amoebot.NeighborArcs(occ, c)
		return deg >= 1 && deg <= 5 && arcs == 1
	}
	prot := make(map[amoebot.Coord]bool, len(protect))
	for _, c := range protect {
		prot[c] = true
	}
	unit := amoebot.Coord{}.Neighbor(dir)
	proj := func(c amoebot.Coord) int { return c.X*unit.X + c.Y*unit.Y + c.Z*unit.Z }

	// Candidate pools: empty cells that may be added, occupied boundary
	// cells that may be removed. Deterministic append order (index order,
	// then pick order); staleness is fine because mutability and occupancy
	// are re-checked at pick time. Picks extend the pools locally.
	var addCands, rmCands []amoebot.Coord
	addSeen := make(map[amoebot.Coord]bool)
	rmSeen := make(map[amoebot.Coord]bool)
	for i := int32(0); i < int32(s.N()); i++ {
		if s.Degree(i) == 6 {
			continue // interior: no empty neighbor, not removable either
		}
		c := s.Coord(i)
		rmCands = append(rmCands, c)
		rmSeen[c] = true
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if s.Neighbor(i, d) != amoebot.None {
				continue
			}
			e := c.Neighbor(d)
			if !addSeen[e] {
				addSeen[e] = true
				addCands = append(addCands, e)
			}
		}
	}

	// pick selects the candidate extremizing the projection (sign=+1 for
	// the leading boundary, -1 for the trailing one) among those the
	// filter admits, breaking projection ties with rng.
	pick := func(cands []amoebot.Coord, sign int, admit func(amoebot.Coord) bool) (amoebot.Coord, bool) {
		var best []amoebot.Coord
		bestP := 0
		for _, c := range cands {
			if !admit(c) {
				continue
			}
			if p := sign * proj(c); len(best) == 0 || p > bestP {
				best, bestP = best[:0], p
				best = append(best, c)
			} else if p == bestP {
				best = append(best, c)
			}
		}
		if len(best) == 0 {
			return amoebot.Coord{}, false
		}
		return best[rng.Intn(len(best))], true
	}

	added := make(map[amoebot.Coord]bool, adds)
	tip, haveTip := amoebot.Coord{}, false
	for a := 0; a < adds; a++ {
		admit := func(c amoebot.Coord) bool { return !occ(c) && mutable(c) }
		cands := addCands
		if tail && haveTip {
			// Extend the tail from the last added tip only.
			cands = cands[:0:0]
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				cands = append(cands, tip.Neighbor(d))
			}
		}
		c, ok := pick(cands, +1, admit)
		if !ok {
			break
		}
		changes[c] = true
		added[c] = true
		tip, haveTip = c, true
		if !rmSeen[c] {
			rmSeen[c] = true
			rmCands = append(rmCands, c)
		}
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			e := c.Neighbor(d)
			if !occ(e) && !addSeen[e] {
				addSeen[e] = true
				addCands = append(addCands, e)
			}
		}
	}
	live := s.N() + len(added)
	for r := 0; r < removes && live > 1; r++ {
		admit := func(c amoebot.Coord) bool {
			// Just-added cells are exempt: a coordinate may not appear on
			// both sides of one delta.
			return occ(c) && !prot[c] && !added[c] && mutable(c)
		}
		c, ok := pick(rmCands, -1, admit)
		if !ok {
			break
		}
		changes[c] = false
		live--
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			e := c.Neighbor(d)
			if occ(e) && !rmSeen[e] {
				rmSeen[e] = true
				rmCands = append(rmCands, e)
			}
		}
	}

	var d amoebot.Delta
	for _, c := range addCands {
		if changes[c] && !s.Occupied(c) {
			d.Add = append(d.Add, c)
		}
	}
	for _, c := range rmCands {
		if v, ok := changes[c]; ok && !v && s.Occupied(c) {
			d.Remove = append(d.Remove, c)
		}
	}
	return d
}

// RandomSubset picks k distinct node indices of s uniformly at random,
// sorted ascending. It panics if k exceeds the structure size.
func RandomSubset(rng *rand.Rand, s *amoebot.Structure, k int) []int32 {
	n := s.N()
	if k > n {
		panic("shapes: subset larger than structure")
	}
	perm := rng.Perm(n)[:k]
	out := make([]int32, k)
	for i, p := range perm {
		out[i] = int32(p)
	}
	// Insertion sort: k is usually small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
