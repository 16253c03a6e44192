package shapes

import (
	"math/rand"
	"reflect"
	"testing"

	"spforest/amoebot"
)

func validate(t *testing.T, name string, s *amoebot.Structure) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestLine(t *testing.T) {
	s := Line(7)
	if s.N() != 7 {
		t.Fatalf("N = %d", s.N())
	}
	validate(t, "line", s)
	ends := 0
	for i := int32(0); i < int32(s.N()); i++ {
		switch s.Degree(i) {
		case 1:
			ends++
		case 2:
		default:
			t.Fatalf("line node %d has degree %d", i, s.Degree(i))
		}
	}
	if ends != 2 {
		t.Fatalf("line has %d endpoints", ends)
	}
}

func TestParallelogram(t *testing.T) {
	s := Parallelogram(6, 4)
	if s.N() != 24 {
		t.Fatalf("N = %d", s.N())
	}
	validate(t, "parallelogram", s)
}

func TestHexagonSize(t *testing.T) {
	for r := 0; r <= 5; r++ {
		s := Hexagon(r)
		want := 1 + 3*r*(r+1)
		if s.N() != want {
			t.Errorf("hexagon(%d): N = %d, want %d", r, s.N(), want)
		}
		validate(t, "hexagon", s)
	}
}

func TestTriangle(t *testing.T) {
	s := Triangle(5)
	if s.N() != 15 {
		t.Fatalf("N = %d, want 15", s.N())
	}
	validate(t, "triangle", s)
}

func TestComb(t *testing.T) {
	s := Comb(4, 6)
	if s.N() != 7+4*6 {
		t.Fatalf("N = %d", s.N())
	}
	validate(t, "comb", s)
}

func TestStaircase(t *testing.T) {
	s := Staircase(4, 5, 3)
	validate(t, "staircase", s)
	if s.N() < 4*5*3 {
		t.Fatalf("staircase suspiciously small: %d", s.N())
	}
}

func TestRandomBlobValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(400)
		s := RandomBlob(rng, n)
		if s.N() < n {
			t.Fatalf("blob size %d < target %d", s.N(), n)
		}
		validate(t, "blob", s)
	}
}

func TestRandomBlobVariety(t *testing.T) {
	// Structures from different seeds should differ (generator is random).
	a := RandomBlob(rand.New(rand.NewSource(1)), 100)
	b := RandomBlob(rand.New(rand.NewSource(2)), 100)
	if a.N() == b.N() {
		ca, cb := a.Coords(), b.Coords()
		same := true
		for i := range ca {
			if ca[i] != cb[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical blobs")
		}
	}
}

func TestRandomBlobDeterministic(t *testing.T) {
	a := RandomBlob(rand.New(rand.NewSource(9)), 150)
	b := RandomBlob(rand.New(rand.NewSource(9)), 150)
	if a.N() != b.N() {
		t.Fatalf("same seed produced different sizes: %d vs %d", a.N(), b.N())
	}
	ca, cb := a.Coords(), b.Coords()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatal("same seed produced different blobs")
		}
	}
}

// TestRandomDeltaDeterministic: equal seeds give element-for-element equal
// deltas, with the additions in canonical row-major order.
func TestRandomDeltaDeterministic(t *testing.T) {
	s := RandomBlob(rand.New(rand.NewSource(13)), 300)
	for seed := int64(0); seed < 20; seed++ {
		a := RandomDelta(rand.New(rand.NewSource(seed)), s, 12, 6)
		b := RandomDelta(rand.New(rand.NewSource(seed)), s, 12, 6)
		if len(a.Add) < 2 {
			t.Fatalf("seed %d: only %d additions; the order check needs several", seed, len(a.Add))
		}
		if !reflect.DeepEqual(a.Add, b.Add) || !reflect.DeepEqual(a.Remove, b.Remove) {
			t.Fatalf("seed %d: equal seeds gave different deltas\n%v\n%v", seed, a, b)
		}
		for i := 1; i < len(a.Add); i++ {
			p, q := a.Add[i-1], a.Add[i]
			if p.Z > q.Z || (p.Z == q.Z && p.X >= q.X) {
				t.Fatalf("seed %d: additions not in row-major order at %d: %v, %v", seed, i, p, q)
			}
		}
	}
}

func TestRandomHoledBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, holes int }{
		{60, 1}, {150, 3}, {300, 8}, {40, 0},
	} {
		s := RandomHoledBlob(rng, tc.n, tc.holes)
		if !s.IsConnected() {
			t.Fatalf("holed blob (n=%d holes=%d) disconnected", tc.n, tc.holes)
		}
		if got := s.Holes(); got != tc.holes {
			t.Fatalf("holed blob (n=%d): %d holes, want %d", tc.n, got, tc.holes)
		}
	}
}

func TestRandomHoledBlobDeterministic(t *testing.T) {
	a := RandomHoledBlob(rand.New(rand.NewSource(4)), 120, 2)
	b := RandomHoledBlob(rand.New(rand.NewSource(4)), 120, 2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same seed produced different holed blobs")
	}
}

func TestRandomHoledBlobDilatesStringyBlobs(t *testing.T) {
	// A tiny target forces blobs with no interior cells; the generator must
	// dilate until the holes fit rather than fail.
	s := RandomHoledBlob(rand.New(rand.NewSource(5)), 2, 2)
	if !s.IsConnected() || s.Holes() != 2 {
		t.Fatalf("connected=%v holes=%d, want connected with 2 holes",
			s.IsConnected(), s.Holes())
	}
}

func TestPunchHoles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := Hexagon(5)
	ns, err := PunchHoles(rng, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ns.N() != s.N()-4 {
		t.Fatalf("N = %d, want %d", ns.N(), s.N()-4)
	}
	if !ns.IsConnected() || ns.Holes() != 4 {
		t.Fatalf("connected=%v holes=%d after punching 4", ns.IsConnected(), ns.Holes())
	}
	// A line has no interior cells at all.
	if _, err := PunchHoles(rng, Line(9), 1); err == nil {
		t.Fatal("punching a line did not fail")
	}
}

func TestDilate(t *testing.T) {
	s := Dilate(Line(3))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// A 3-line has 3 cells and 10 distinct neighbors around it (a capsule
	// of 2·3+4 boundary cells).
	if s.N() != 13 {
		t.Fatalf("dilated 3-line has %d cells, want 13", s.N())
	}
	for _, c := range Line(3).Coords() {
		if !s.Occupied(c) {
			t.Fatalf("dilation dropped %v", c)
		}
	}
	// Dilating a width-1 ring closes nothing by itself but keeps the hole;
	// composing with FillHoles restores the preconditions.
	ring := amoebot.MustStructure(annulusRing(4))
	d := Dilate(ring)
	if d.Holes() == 0 {
		t.Fatal("dilated ring lost its hole without FillHoles")
	}
	if err := FillHoles(d).Validate(); err != nil {
		t.Fatal(err)
	}
}

// annulusRing returns the width-1 hexagonal ring of the given radius.
func annulusRing(r int) []amoebot.Coord {
	var cs []amoebot.Coord
	origin := amoebot.Coord{}
	for z := -r; z <= r; z++ {
		for x := -2 * r; x <= 2*r; x++ {
			if c := amoebot.XZ(x, z); origin.Dist(c) == r {
				cs = append(cs, c)
			}
		}
	}
	return cs
}

func TestFillHoles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	holed := RandomHoledBlob(rng, 200, 5)
	filled := FillHoles(holed)
	if err := filled.Validate(); err != nil {
		t.Fatalf("filled closure invalid: %v", err)
	}
	if filled.N() != holed.N()+5 {
		t.Fatalf("closure N = %d, want %d (single-cell holes)", filled.N(), holed.N()+5)
	}
	// Every original amoebot survives the closure.
	for _, c := range holed.Coords() {
		if !filled.Occupied(c) {
			t.Fatalf("closure dropped %v", c)
		}
	}
	// Already hole-free structures are unchanged.
	hex := Hexagon(3)
	if FillHoles(hex).Fingerprint() != hex.Fingerprint() {
		t.Fatal("FillHoles changed a hole-free structure")
	}
}

func TestRandomSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Hexagon(4)
	sub := RandomSubset(rng, s, 10)
	if len(sub) != 10 {
		t.Fatalf("subset size %d", len(sub))
	}
	for i := 1; i < len(sub); i++ {
		if sub[i-1] >= sub[i] {
			t.Fatalf("subset not strictly ascending: %v", sub)
		}
	}
	for _, i := range sub {
		if i < 0 || int(i) >= s.N() {
			t.Fatalf("subset index out of range: %d", i)
		}
	}
	all := RandomSubset(rng, s, s.N())
	if len(all) != s.N() {
		t.Fatal("full subset wrong size")
	}
}

func TestRandomSubsetPanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized subset did not panic")
		}
	}()
	RandomSubset(rand.New(rand.NewSource(1)), Line(3), 4)
}
