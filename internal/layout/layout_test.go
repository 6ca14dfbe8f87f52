package layout

import (
	"fmt"
	"math"
	"testing"
)

func TestClassAllows(t *testing.T) {
	cases := []struct {
		c      Class
		dx, dy int
		want   bool
	}{
		{Small, 1, 0, true},
		{Small, 0, 1, true},
		{Small, 1, 1, true},
		{Small, 2, 0, false},
		{Small, 0, 2, false},
		{Small, 2, 1, false},
		{Small, 0, 0, false},
		{Medium, 1, 1, true},
		{Medium, 2, 0, true},
		{Medium, 0, 2, true},
		{Medium, 2, 1, false},
		{Medium, 2, 2, false},
		{Large, 2, 0, true},
		{Large, 2, 1, true},
		{Large, 1, 2, true},
		{Large, 2, 2, false},
		{Large, 3, 0, false},
		{Large, -2, -1, true}, // absolute spans
	}
	for _, tc := range cases {
		if got := tc.c.Allows(tc.dx, tc.dy); got != tc.want {
			t.Errorf("%v.Allows(%d,%d) = %v, want %v", tc.c, tc.dx, tc.dy, got, tc.want)
		}
	}
}

func TestClassNesting(t *testing.T) {
	// Every link allowed by a shorter class must be allowed by all longer
	// classes.
	for dx := 0; dx <= 3; dx++ {
		for dy := 0; dy <= 3; dy++ {
			if Small.Allows(dx, dy) && !Medium.Allows(dx, dy) {
				t.Errorf("medium does not nest small at (%d,%d)", dx, dy)
			}
			if Medium.Allows(dx, dy) && !Large.Allows(dx, dy) {
				t.Errorf("large does not nest medium at (%d,%d)", dx, dy)
			}
		}
	}
}

func TestClassStringParse(t *testing.T) {
	for _, c := range Classes() {
		parsed, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if parsed != c {
			t.Errorf("round trip %v -> %q -> %v", c, c.String(), parsed)
		}
	}
	if _, err := ParseClass("huge"); err == nil {
		t.Error("ParseClass(huge) should fail")
	}
}

// TestParseGrid's rows, which also seed FuzzParseGrid.
// 4294967296x4294967296 overflows N to 0 and 3037000500x3037000500
// overflows it to a negative count, so a cap on N alone would let both
// through.
var (
	parseGridGood = map[string][2]int{"4x5": {4, 5}, "1x1": {1, 1}, "32x32": {32, 32}}
	parseGridBad  = []string{
		"", "0x5", "5x0", "4x", "x5", "4x5x6", "-1x5", "4 x 5", "4X5", "axb",
		"4294967296x4294967296", "3037000500x3037000500",
	}
)

// TestParseGrid: the "RxC" parser accepts positive sizes whose router
// count fits an int.
func TestParseGrid(t *testing.T) {
	for in, want := range parseGridGood {
		g, err := ParseGrid(in)
		if err != nil || g.Rows != want[0] || g.Cols != want[1] {
			t.Errorf("ParseGrid(%q) = %v, %v; want %dx%d", in, g, err, want[0], want[1])
		}
	}
	for _, in := range parseGridBad {
		if g, err := ParseGrid(in); err == nil {
			t.Errorf("ParseGrid(%q) accepted: %v", in, g)
		}
	}
}

// FuzzParseGrid: no input panics, and an accepted grid has positive
// rows and columns whose product fits an int, and parses back to
// itself from its "RxC" form.
func FuzzParseGrid(f *testing.F) {
	for in := range parseGridGood {
		f.Add(in)
	}
	for _, in := range parseGridBad {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ParseGrid(in)
		if err != nil {
			return
		}
		if g.Rows <= 0 || g.Cols <= 0 || g.Rows > math.MaxInt/g.Cols {
			t.Fatalf("ParseGrid(%q) accepted %dx%d", in, g.Rows, g.Cols)
		}
		printed := fmt.Sprintf("%dx%d", g.Rows, g.Cols)
		back, err := ParseGrid(printed)
		if err != nil || *back != *g {
			t.Fatalf("ParseGrid(%q) = %+v, but its form %q parses to %+v, %v", in, *g, printed, back, err)
		}
	})
}

func TestClockOrdering(t *testing.T) {
	if !(Small.ClockGHz() > Medium.ClockGHz() && Medium.ClockGHz() > Large.ClockGHz()) {
		t.Errorf("clock speeds must decrease with link length: %v %v %v",
			Small.ClockGHz(), Medium.ClockGHz(), Large.ClockGHz())
	}
}

func TestGridPositions(t *testing.T) {
	g := Grid4x5
	if g.N() != 20 {
		t.Fatalf("4x5 grid has %d routers, want 20", g.N())
	}
	// Row-major numbering: router 7 is row 1, col 2.
	row, col := g.Pos(7)
	if row != 1 || col != 2 {
		t.Errorf("Pos(7) = (%d,%d), want (1,2)", row, col)
	}
	if r := g.Router(1, 2); r != 7 {
		t.Errorf("Router(1,2) = %d, want 7", r)
	}
	// Round trip everything.
	for r := 0; r < g.N(); r++ {
		rr, cc := g.Pos(r)
		if g.Router(rr, cc) != r {
			t.Errorf("round trip failed for router %d", r)
		}
	}
}

func TestGridSpan(t *testing.T) {
	g := Grid4x5
	// Routers 0 (0,0) and 12 (2,2): dx=2, dy=2.
	dx, dy := g.Span(0, 12)
	if dx != 2 || dy != 2 {
		t.Errorf("Span(0,12) = (%d,%d), want (2,2)", dx, dy)
	}
	// Symmetry.
	dx2, dy2 := g.Span(12, 0)
	if dx != dx2 || dy != dy2 {
		t.Error("Span must be symmetric")
	}
}

func TestValidLinksSmall4x5(t *testing.T) {
	g := Grid4x5
	links := g.ValidLinks(Small)
	// Count expected (1,1)-budget directed links on a 4x5 grid:
	// horizontal 4*(4)=16 pairs, vertical 3*5=15 pairs, diagonal 2*3*4=24
	// pairs; each pair contributes two directed links.
	wantPairs := 16 + 15 + 24
	if len(links) != 2*wantPairs {
		t.Errorf("small 4x5 has %d directed candidate links, want %d", len(links), 2*wantPairs)
	}
	for _, l := range links {
		if l.From == l.To {
			t.Errorf("self link %v", l)
		}
		dx, dy := g.Span(l.From, l.To)
		if !Small.Allows(dx, dy) {
			t.Errorf("link %v violates small budget: span (%d,%d)", l, dx, dy)
		}
	}
}

func TestValidLinksMonotone(t *testing.T) {
	g := Grid4x5
	ns := len(g.ValidLinks(Small))
	nm := len(g.ValidLinks(Medium))
	nl := len(g.ValidLinks(Large))
	if !(ns < nm && nm < nl) {
		t.Errorf("candidate link counts must grow with class: %d %d %d", ns, nm, nl)
	}
}

func TestMemoryControllerRouters(t *testing.T) {
	g := Grid4x5
	mcs := g.MemoryControllerRouters()
	if len(mcs) != 8 {
		t.Fatalf("4x5 grid has %d MC routers, want 8", len(mcs))
	}
	for _, r := range mcs {
		_, col := g.Pos(r)
		if col != 0 && col != g.Cols-1 {
			t.Errorf("MC router %d not in edge column (col=%d)", r, col)
		}
	}
	cores := g.CoreRouters()
	if len(cores)+len(mcs) != g.N() {
		t.Errorf("core (%d) + MC (%d) routers != %d", len(cores), len(mcs), g.N())
	}
}

func TestLengthMM(t *testing.T) {
	g := NewGrid(4, 5)
	if got := g.LengthMM(0, 1); got != g.PitchMM {
		t.Errorf("adjacent link length = %v, want %v", got, g.PitchMM)
	}
	// Diagonal (1,1) is sqrt(2) * pitch.
	d := g.LengthMM(0, 6)
	want := g.PitchMM * 1.4142135623730951
	if diff := d - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("diagonal length = %v, want %v", d, want)
	}
}
