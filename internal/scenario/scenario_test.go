package scenario

import (
	"reflect"
	"strings"
	"testing"

	"spforest/amoebot"
)

// TestRegistryShape pins the registry's acceptance-level structure: at
// least ten families, every family with at least one holed and one
// hole-free instance, unique names, and working lookups.
func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("empty registry")
	}
	fams := Families()
	if len(fams) < 10 {
		t.Fatalf("%d families, want >= 10 (%v)", len(fams), fams)
	}
	holedBy := make(map[string]int)
	freeBy := make(map[string]int)
	seen := make(map[string]bool)
	for _, sc := range all {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if !strings.HasPrefix(sc.Name, sc.Family+"/") {
			t.Fatalf("name %q does not carry family %q", sc.Name, sc.Family)
		}
		if sc.Holed() {
			holedBy[sc.Family]++
		} else {
			freeBy[sc.Family]++
		}
		got, ok := ByName(sc.Name)
		if !ok || got.S != sc.S {
			t.Fatalf("ByName(%q) failed", sc.Name)
		}
	}
	for _, f := range fams {
		if holedBy[f] == 0 {
			t.Errorf("family %q has no holed instance", f)
		}
		if freeBy[f] == 0 {
			t.Errorf("family %q has no hole-free instance", f)
		}
	}
	if _, ok := ByName("no/such"); ok {
		t.Error("ByName accepted an unknown name")
	}
	if len(Holed())+len(HoleFree()) != len(all) {
		t.Error("Holed + HoleFree do not partition the registry")
	}
}

// TestRegistryDeterministic: All() hands out the same structures on every
// call and the same source sets per scenario.
func TestRegistryDeterministic(t *testing.T) {
	a, b := All(), All()
	for i := range a {
		if a[i].S.Fingerprint() != b[i].S.Fingerprint() {
			t.Fatalf("%s: registry not deterministic", a[i].Name)
		}
		sa, sb := a[i].SourceSets(), b[i].SourceSets()
		for j := range sa {
			for k := range sa[j] {
				if sa[j][k] != sb[j][k] {
					t.Fatalf("%s: source sets not deterministic", a[i].Name)
				}
			}
		}
	}
}

// TestDifferentialHarness is the PR's acceptance check: the full
// differential battery — every registered scenario, every solver,
// bit-exact ground-truth agreement — must pass. In -short mode the larger
// instances are skipped so the sweep stays push-friendly.
func TestDifferentialHarness(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if testing.Short() && sc.S.N() > 200 {
				t.Skipf("-short: skipping %d-amoebot instance", sc.S.N())
			}
			if err := Check(sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChurnWorkloads: every named churn profile keeps incremental engines
// bit-exactly in line with fresh rebuilds on representative hole-free
// scenarios.
func TestChurnWorkloads(t *testing.T) {
	bases := []string{"blob/n250", "hexagon/r4", "maze/7x5"}
	for name, c := range Workloads() {
		name, c := name, c
		for _, base := range bases {
			base := base
			t.Run(name+"/"+base, func(t *testing.T) {
				if testing.Short() && name != "steady" {
					t.Skip("-short: steady profile only")
				}
				sc, ok := ByName(base)
				if !ok {
					t.Fatalf("unknown base scenario %q", base)
				}
				if err := CheckChurn(sc, c); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestChurnSequenceShape: sequences are deterministic, apply cleanly and
// never remove protected coordinates.
func TestChurnSequenceShape(t *testing.T) {
	sc, ok := ByName("blob/n250")
	if !ok {
		t.Fatal("missing base scenario")
	}
	protect := sc.SourceSets()[1]
	c := Churn{Seed: 9, Steps: 5, Adds: 4, Removes: 4}
	d1, s1, err := c.Sequence(sc.S, protect...)
	if err != nil {
		t.Fatal(err)
	}
	d2, s2, err := c.Sequence(sc.S, protect...)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != c.Steps || len(s1) != c.Steps+1 {
		t.Fatalf("sequence shape: %d deltas, %d states", len(d1), len(s1))
	}
	for i := range s1 {
		if s1[i].Fingerprint() != s2[i].Fingerprint() {
			t.Fatalf("step %d: sequence not deterministic", i)
		}
		if err := s1[i].Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, p := range protect {
			if !s1[i].Occupied(p) {
				t.Fatalf("step %d: protected %v removed", i, p)
			}
		}
	}
	for i := range d1 {
		if d1[i].Size() != d2[i].Size() {
			t.Fatal("deltas not deterministic")
		}
	}
	// Holed bases are rejected.
	holed := Holed()[0]
	if _, _, err := c.Sequence(holed.S); err == nil {
		t.Fatal("churn accepted a holed base")
	}
}

// TestChurnRandomChainsDeterministic: two fresh random-kind chains with
// equal seeds emit equal deltas, element for element, and pass through the
// same fingerprint sequence.
func TestChurnRandomChainsDeterministic(t *testing.T) {
	sc, ok := ByName("blob/n250")
	if !ok {
		t.Fatal("missing base scenario")
	}
	c := Churn{Seed: 17, Steps: 8, Adds: 10, Removes: 6}
	d1, s1, err := c.Sequence(sc.S)
	if err != nil {
		t.Fatal(err)
	}
	d2, s2, err := c.Sequence(sc.S)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if !reflect.DeepEqual(d1[i].Add, d2[i].Add) || !reflect.DeepEqual(d1[i].Remove, d2[i].Remove) {
			t.Fatalf("step %d: deltas differ\n%v\n%v", i, d1[i], d2[i])
		}
	}
	for i := range s1 {
		if s1[i].Fingerprint() != s2[i].Fingerprint() {
			t.Fatalf("step %d: fingerprints differ", i)
		}
	}
}

// TestChurnMovingProfiles: the directed kinds actually move — the
// translate profile advances the structure's mean projection along its
// direction while holding the size near-constant, and the grow-tail
// profile stretches the structure's extent along it.
func TestChurnMovingProfiles(t *testing.T) {
	sc, ok := ByName("blob/n250")
	if !ok {
		t.Fatal("missing base scenario")
	}
	proj := func(s *amoebot.Structure, dir amoebot.Direction) (sum, max int) {
		u := amoebot.Coord{}.Neighbor(dir)
		max = -1 << 30
		for _, c := range s.Coords() {
			p := c.X*u.X + c.Y*u.Y + c.Z*u.Z
			sum += p
			if p > max {
				max = p
			}
		}
		return sum, max
	}

	tr := Churn{Seed: 105, Steps: 8, Adds: 8, Removes: 8, Kind: KindTranslate}
	dir := amoebot.Direction(uint64(tr.Seed) % uint64(amoebot.NumDirections))
	_, states, err := tr.Sequence(sc.S)
	if err != nil {
		t.Fatal(err)
	}
	first, last := states[0], states[len(states)-1]
	s0, _ := proj(first, dir)
	s1, _ := proj(last, dir)
	if float64(s1)/float64(last.N()) <= float64(s0)/float64(first.N()) {
		t.Fatalf("translate-front did not advance: mean projection %f -> %f",
			float64(s0)/float64(first.N()), float64(s1)/float64(last.N()))
	}

	gt := Churn{Seed: 106, Steps: 8, Adds: 6, Removes: 0, Kind: KindGrowTail}
	dir = amoebot.Direction(uint64(gt.Seed) % uint64(amoebot.NumDirections))
	_, states, err = gt.Sequence(sc.S)
	if err != nil {
		t.Fatal(err)
	}
	first, last = states[0], states[len(states)-1]
	_, m0 := proj(first, dir)
	_, m1 := proj(last, dir)
	if m1 <= m0 {
		t.Fatalf("grow-tail did not extend the leading tip: max projection %d -> %d", m0, m1)
	}
	if last.N() <= first.N() {
		t.Fatalf("grow-tail did not grow: %d -> %d cells", first.N(), last.N())
	}

	// Unknown kinds are rejected up front.
	if _, _, err := (Churn{Kind: "spiral", Steps: 1}).Sequence(sc.S); err == nil {
		t.Fatal("unknown churn kind accepted")
	}
}

// TestGeneratorEdges covers generator corners the registry doesn't hit.
func TestGeneratorEdges(t *testing.T) {
	if s := Annulus(3, -1); s.Holes() != 0 || s.N() != 1+3*3*4 {
		t.Errorf("Annulus(3,-1) should be the full hexagon, got n=%d holes=%d", s.N(), s.Holes())
	}
	if s := Sierpinski(1); s.N() != 3 || s.Holes() != 0 {
		t.Errorf("Sierpinski(1): n=%d holes=%d, want 3 cells and no hole", s.N(), s.Holes())
	}
	for d := 1; d <= 4; d++ {
		s := Sierpinski(d)
		if got, want := s.Holes(), SierpinskiHoles(d); got != want {
			t.Errorf("Sierpinski(%d): %d holes, want %d", d, got, want)
		}
		if !s.IsConnected() {
			t.Errorf("Sierpinski(%d) disconnected", d)
		}
	}
	if got, want := Pillars(13, 9, 2).Holes(), PillarsHoles(13, 9, 2); got != want || want == 0 {
		t.Errorf("Pillars(13,9,2): %d holes, want %d > 0", got, want)
	}
	if s := Maze(42, 6, 4); s.Holes() != 0 || !s.IsConnected() {
		t.Errorf("Maze: holes=%d connected=%v", s.Holes(), s.IsConnected())
	}
	if a, b := Maze(42, 6, 4), Maze(43, 6, 4); a.Fingerprint() == b.Fingerprint() {
		t.Error("different maze seeds produced identical mazes")
	}
	if s := Spiral(2, 2, 0); s.Holes() != 0 || !s.IsConnected() {
		t.Errorf("Spiral: holes=%d connected=%v", s.Holes(), s.IsConnected())
	}
	if s := Dumbbell(3, 5, -1); s.Holes() != 0 {
		t.Errorf("solid dumbbell has %d holes", s.Holes())
	}
	if s := Dumbbell(3, 5, 0); s.Holes() != 2 {
		t.Errorf("hollow dumbbell has %d holes, want 2", s.Holes())
	}
}
