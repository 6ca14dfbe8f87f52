// Package layout models the physical placement of network-on-interposer
// (NoI) routers and the link-length constraints that govern which router
// pairs may be directly connected.
//
// NetSmith's search space is constrained by the physical layout of routers
// and by a maximum acceptable link delay, expressed — following the Kite
// taxonomy (Bharadwaj et al., DAC'20) — as the longest permitted (x, y) hop
// span of a single link. Links are named by the grid hops they span in the
// X and Y dimensions: a (1,0) link connects horizontally adjacent routers,
// a (2,1) link spans two columns and one row, and so on.
package layout

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Class is a link-length budget category from the Kite taxonomy. Networks
// limited to (1,1) links are "small", (2,0) links "medium" and (2,1) links
// "large". Longer links force slower network clocks, so each class carries
// the fastest NoI clock it permits (values from the paper: 3.6, 3.0 and
// 2.7 GHz respectively).
type Class int

const (
	// Small permits links spanning at most (1,1): (1,0), (0,1) and (1,1).
	Small Class = iota
	// Medium permits links up to Euclidean length 2.0: Small plus (2,0)
	// and (0,2).
	Medium
	// Large permits links up to Euclidean length sqrt(5): Medium plus
	// (2,1) and (1,2).
	Large
)

// String returns the lower-case class name used throughout the paper.
func (c Class) String() string {
	switch c {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass converts a class name ("small", "medium", "large") to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("layout: unknown link-length class %q", s)
}

// ParseGrid converts the "RxC" notation of job bodies and CLI flags
// (e.g. "4x5") to a Grid. Rows and columns must be positive and small
// enough that their product, Grid.N, does not overflow.
func ParseGrid(s string) (*Grid, error) {
	r, c, ok := strings.Cut(s, "x")
	if ok {
		rows, err1 := strconv.Atoi(r)
		cols, err2 := strconv.Atoi(c)
		if err1 == nil && err2 == nil && rows > 0 && cols > 0 {
			if rows > math.MaxInt/cols {
				return nil, fmt.Errorf("layout: grid %q has too many routers", s)
			}
			return NewGrid(rows, cols), nil
		}
	}
	return nil, fmt.Errorf("layout: bad grid %q (want RxC, e.g. 4x5)", s)
}

// Classes lists all link-length classes in increasing length order.
func Classes() []Class { return []Class{Small, Medium, Large} }

// MaxSpan returns the longest permitted link span (dx, dy) with dx >= dy,
// defining the class per the Kite naming.
func (c Class) MaxSpan() (dx, dy int) {
	switch c {
	case Small:
		return 1, 1
	case Medium:
		return 2, 0
	case Large:
		return 2, 1
	default:
		panic("layout: invalid class")
	}
}

// maxLen2 returns the squared Euclidean length of the longest permitted
// link. A span (dx, dy) is permitted when dx*dx+dy*dy <= maxLen2. This
// nests the classes: small {(1,0),(0,1),(1,1)}, medium adds {(2,0),(0,2)},
// large adds {(2,1),(1,2)}.
func (c Class) maxLen2() int {
	dx, dy := c.MaxSpan()
	return dx*dx + dy*dy
}

// Allows reports whether a link spanning dx columns and dy rows (absolute
// values) is within the class's length budget.
func (c Class) Allows(dx, dy int) bool {
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dx == 0 && dy == 0 {
		return false // self links are never meaningful
	}
	return dx*dx+dy*dy <= c.maxLen2()
}

// ClockGHz returns the fastest NoI clock the class permits; the paper
// clocks small, medium and large networks at 3.6, 3.0 and 2.7 GHz.
func (c Class) ClockGHz() float64 {
	switch c {
	case Small:
		return 3.6
	case Medium:
		return 3.0
	case Large:
		return 2.7
	default:
		panic("layout: invalid class")
	}
}

// Link identifies a directed candidate link between two routers.
type Link struct {
	From, To int
}

// Grid is a regular placement of NoI routers with Rows rows and Cols
// columns. Router r sits at row r/Cols, column r%Cols, matching the 4x5
// organization in the paper's Figure 2(b) (row-major numbering). Pitch is
// the physical distance between adjacent routers in millimetres, used by
// the power/area model.
type Grid struct {
	Rows, Cols int
	PitchMM    float64
}

// NewGrid returns a Grid with the given dimensions and a default 2.0 mm
// router pitch (a typical interposer router spacing).
func NewGrid(rows, cols int) *Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("layout: invalid grid %dx%d", rows, cols))
	}
	return &Grid{Rows: rows, Cols: cols, PitchMM: 2.0}
}

// Standard paper configurations.
var (
	// Grid4x5 is the paper's 20-router NoI (4 rows x 5 columns).
	Grid4x5 = NewGrid(4, 5)
	// Grid6x5 is the paper's 30-router configuration.
	Grid6x5 = NewGrid(6, 5)
	// Grid8x6 is the paper's 48-router scalability configuration.
	Grid8x6 = NewGrid(8, 6)
	// Grid10x10 is a 100-router configuration beyond the paper's largest
	// study, exercising the multi-word synthesis path (no 64-router
	// cap).
	Grid10x10 = NewGrid(10, 10)
)

// N returns the number of routers in the grid.
func (g *Grid) N() int { return g.Rows * g.Cols }

// Pos returns the (row, col) position of router r.
func (g *Grid) Pos(r int) (row, col int) {
	if r < 0 || r >= g.N() {
		panic(fmt.Sprintf("layout: router %d out of range for %dx%d grid", r, g.Rows, g.Cols))
	}
	return r / g.Cols, r % g.Cols
}

// Router returns the router index at (row, col).
func (g *Grid) Router(row, col int) int {
	if row < 0 || row >= g.Rows || col < 0 || col >= g.Cols {
		panic(fmt.Sprintf("layout: position (%d,%d) out of range for %dx%d grid", row, col, g.Rows, g.Cols))
	}
	return row*g.Cols + col
}

// Span returns the absolute column and row distance between routers a
// and b.
func (g *Grid) Span(a, b int) (dx, dy int) {
	ra, ca := g.Pos(a)
	rb, cb := g.Pos(b)
	dx, dy = cb-ca, rb-ra
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx, dy
}

// LengthMM returns the physical (Euclidean) length of a link between
// routers a and b in millimetres.
func (g *Grid) LengthMM(a, b int) float64 {
	dx, dy := g.Span(a, b)
	return g.PitchMM * math.Sqrt(float64(dx*dx+dy*dy))
}

// ValidLinks enumerates the set L of candidate directed links permitted by
// the class's length budget, in deterministic (from, to) order. Both
// directions of each pair are listed because NetSmith supports asymmetric
// links.
func (g *Grid) ValidLinks(c Class) []Link {
	n := g.N()
	links := make([]Link, 0, n*8)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			dx, dy := g.Span(a, b)
			if c.Allows(dx, dy) {
				links = append(links, Link{From: a, To: b})
			}
		}
	}
	return links
}

// MemoryControllerRouters returns the routers that host memory
// controllers. Following the paper's 4x5 organization, NoI routers in the
// left-most and right-most columns connect two cores plus two memory
// controllers each; middle-column routers connect four cores.
func (g *Grid) MemoryControllerRouters() []int {
	mcs := make([]int, 0, 2*g.Rows)
	for row := 0; row < g.Rows; row++ {
		mcs = append(mcs, g.Router(row, 0))
	}
	for row := 0; row < g.Rows; row++ {
		mcs = append(mcs, g.Router(row, g.Cols-1))
	}
	return mcs
}

// CoreRouters returns the routers in the middle columns, which attach only
// cores (no memory controllers).
func (g *Grid) CoreRouters() []int {
	cores := make([]int, 0, g.N())
	for row := 0; row < g.Rows; row++ {
		for col := 1; col < g.Cols-1; col++ {
			cores = append(cores, g.Router(row, col))
		}
	}
	return cores
}

// String describes the grid.
func (g *Grid) String() string { return fmt.Sprintf("%dx%d grid (%d routers)", g.Rows, g.Cols, g.N()) }
