package core

import (
	"spforest/amoebot"
	"spforest/internal/dense"
)

// SideVisibility exposes Propagate's phase-1 labelling to the external
// tests: B, the region's nodes on the given side of the x-portal P, and per
// B amoebot whether it sees P along the y- and the z-axis.
func SideVisibility(region *amoebot.Region, pnodes []int32, into amoebot.Side) (b []int32, visY, visZ []bool) {
	s := region.Structure()
	inP, inPB := dense.NewBitSet(s.N()), dense.NewBitSet(s.N())
	for _, p := range pnodes {
		inP.Add(p)
		inPB.Add(p)
	}
	b = sideNodes(region, pnodes, inP, into)
	for _, u := range b {
		inPB.Add(u)
	}
	y, z := dense.NewBitSet(s.N()), dense.NewBitSet(s.N())
	visibleAlong(s, pnodes, inPB, amoebot.AxisY, y)
	visibleAlong(s, pnodes, inPB, amoebot.AxisZ, z)
	for _, u := range b {
		visY = append(visY, y.Has(u))
		visZ = append(visZ, z.Has(u))
	}
	return b, visY, visZ
}
