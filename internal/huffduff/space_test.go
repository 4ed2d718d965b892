package huffduff

import "testing"

// Satellite coverage for the solution-space primitives the convergence
// ledger leans on: interval intersection and Admits across exact, degraded,
// and empty spaces.

func TestIntersect(t *testing.T) {
	cases := []struct {
		name   string
		a, b   [2]int
		want   [2]int
		wantOK bool
	}{
		{"overlap", [2]int{1, 10}, [2]int{5, 20}, [2]int{5, 10}, true},
		{"containment", [2]int{1, 100}, [2]int{40, 60}, [2]int{40, 60}, true},
		{"identical", [2]int{3, 7}, [2]int{3, 7}, [2]int{3, 7}, true},
		{"touching endpoints", [2]int{1, 5}, [2]int{5, 9}, [2]int{5, 5}, true},
		{"disjoint", [2]int{1, 4}, [2]int{6, 9}, [2]int{}, false},
		{"disjoint reversed", [2]int{6, 9}, [2]int{1, 4}, [2]int{}, false},
		{"point vs interval", [2]int{5, 5}, [2]int{1, 10}, [2]int{5, 5}, true},
		{"point miss", [2]int{5, 5}, [2]int{6, 10}, [2]int{}, false},
	}
	for _, c := range cases {
		got, ok := intersect(c.a, c.b)
		if ok != c.wantOK {
			t.Errorf("%s: intersect(%v, %v) ok = %v, want %v", c.name, c.a, c.b, ok, c.wantOK)
			continue
		}
		if ok && got != c.want {
			t.Errorf("%s: intersect(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestAdmitsDegraded(t *testing.T) {
	s := &SolutionSpace{
		Degraded: true,
		KBounds:  map[int][2]int{1: {10, 20}, 3: {5, 5}},
	}
	if !s.Admits(map[int]int{1: 15, 3: 5}) {
		t.Fatal("in-bounds assignment rejected")
	}
	if !s.Admits(map[int]int{1: 10}) && !s.Admits(map[int]int{1: 20}) {
		t.Fatal("interval endpoints rejected")
	}
	if s.Admits(map[int]int{1: 9}) || s.Admits(map[int]int{1: 21}) {
		t.Fatal("out-of-bounds channel admitted")
	}
	if s.Admits(map[int]int{3: 6}) {
		t.Fatal("point interval admitted a different value")
	}
	// Nodes without bounds are unconstrained, as is the empty assignment.
	if !s.Admits(map[int]int{99: 123456}) {
		t.Fatal("unconstrained node rejected")
	}
	if !s.Admits(nil) {
		t.Fatal("empty assignment rejected")
	}
}

func TestAdmitsDegradedEmptyBounds(t *testing.T) {
	// A degraded space with no KBounds at all constrains nothing: every
	// assignment is admissible, which is exactly what "we learned nothing"
	// means.
	s := &SolutionSpace{Degraded: true}
	if !s.Admits(map[int]int{1: 7, 2: 9999}) {
		t.Fatal("unconstrained degraded space rejected an assignment")
	}
}

func TestAdmitsExactEmptySpace(t *testing.T) {
	// An exact space with zero enumerated solutions admits nothing — the
	// opposite polarity from the degraded empty space, because exact spaces
	// enumerate rather than bound.
	s := &SolutionSpace{}
	if s.Admits(nil) {
		t.Fatal("empty exact space admitted the empty assignment")
	}
	if s.Admits(map[int]int{1: 16}) {
		t.Fatal("empty exact space admitted an assignment")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d", s.Count())
	}
}
