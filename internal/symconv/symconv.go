// Package symconv is the symbolic convolution engine of §6.2. It evaluates a
// hypothesized layer geometry on symbolic probe inputs and predicts the
// pattern of output nnz equivalence classes (the ABCC… patterns of §5.4),
// which the prober compares against the classes observed on the DRAM bus.
//
// The engine works on single-channel symbolic grids: the boundary effect is
// agnostic to channel counts (§6.4), so one generic channel predicts the
// same equivalence classes as the victim's many.
package symconv

import (
	"fmt"
	"strings"

	"github.com/huffduff/huffduff/internal/probe"
	"github.com/huffduff/huffduff/internal/sym"
)

// Grid is a single-channel symbolic feature map.
type Grid struct {
	H, W  int
	Cells []sym.ID
}

// At returns the cell at (y, x).
func (g Grid) At(y, x int) sym.ID { return g.Cells[y*g.W+x] }

// Engine evaluates symbolic layers. Cell IDs are fingerprints, so cell
// equality is ID equality across grids and engines alike; the engine's
// evaluator counts the cells it computes.
type Engine struct {
	Ev *sym.Evaluator
}

// NewEngine returns a fresh engine.
func NewEngine() *Engine { return &Engine{Ev: sym.NewEvaluator()} }

// ProbeGrid builds the symbolic input grid for probe i of pattern p on an
// h×w image: boundary-constant columns s_j, an n×n feature patch f_dy_dx at
// column m+i, background b elsewhere. The same variables are used for every
// probe in the set, mirroring how one Values instantiation is shared.
func (e *Engine) ProbeGrid(p probe.Pattern, i, h, w int) Grid {
	g := Grid{H: h, W: w, Cells: make([]sym.ID, h*w)}
	b := e.Ev.Var("b")
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := b
			if !p.FromRight && x < p.M {
				v = e.Ev.Var(fmt.Sprintf("s%d", x))
			}
			if p.FromRight && x >= w-p.M {
				v = e.Ev.Var(fmt.Sprintf("s%d", w-1-x))
			}
			g.Cells[y*w+x] = v
		}
	}
	fc := p.FeatureCol(i, w)
	for dy := 0; dy < p.N; dy++ {
		for dx := 0; dx < p.N; dx++ {
			g.Cells[(p.FeatRow+dy)*w+fc+dx] = e.Ev.Var(fmt.Sprintf("f%d_%d", dy, dx))
		}
	}
	return g
}

// ProbeGrids builds the full set of Q symbolic probe grids.
func (e *Engine) ProbeGrids(p probe.Pattern, h, w int) []Grid {
	grids := make([]Grid, p.Q)
	for i := 0; i < p.Q; i++ {
		grids[i] = e.ProbeGrid(p, i, h, w)
	}
	return grids
}

// Conv applies a same-padded convolution with generic weights w_tag_dy_dx
// and bias b_tag, followed by the layer's activation (BatchNorm's affine
// map and ReLU). The activation is an uninterpreted injective function
// (sym.Evaluator.Act): injective per position, so it never changes the
// equivalence classes of this layer's cells (§5.2 shows how the numeric
// side separates them), and opaque, so a later linear layer (a residual
// add, an average pool) cannot re-associate sums across it.
func (e *Engine) Conv(g Grid, tag string, kernel, stride int) Grid {
	pad := (kernel - 1) / 2
	oh := (g.H+2*pad-kernel)/stride + 1
	ow := (g.W+2*pad-kernel)/stride + 1
	out := Grid{H: oh, W: ow, Cells: make([]sym.ID, oh*ow)}
	// Weight variables are shared across all positions and probes.
	wv := make([]sym.ID, kernel*kernel)
	for dy := 0; dy < kernel; dy++ {
		for dx := 0; dx < kernel; dx++ {
			wv[dy*kernel+dx] = e.Ev.Var(fmt.Sprintf("%s_w%d_%d", tag, dy, dx))
		}
	}
	bias := e.Ev.Var(tag + "_b")
	terms := make([]sym.Term, 0, kernel*kernel+1)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			terms = terms[:0]
			for dy := 0; dy < kernel; dy++ {
				iy := oy*stride + dy - pad
				if iy < 0 || iy >= g.H {
					continue
				}
				for dx := 0; dx < kernel; dx++ {
					ix := ox*stride + dx - pad
					if ix < 0 || ix >= g.W {
						continue
					}
					terms = append(terms, sym.Term{Coef: wv[dy*kernel+dx], X: g.At(iy, ix)})
				}
			}
			terms = append(terms, sym.Term{Coef: bias, X: e.Ev.One()})
			out.Cells[oy*ow+ox] = e.Ev.Act(e.Ev.Sum(terms))
		}
	}
	return out
}

// MaxPool applies max pooling with window == stride.
func (e *Engine) MaxPool(g Grid, window int) Grid {
	if window <= 1 {
		return g
	}
	oh, ow := g.H/window, g.W/window
	out := Grid{H: oh, W: ow, Cells: make([]sym.ID, oh*ow)}
	args := make([]sym.ID, 0, window*window)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			args = args[:0]
			for dy := 0; dy < window; dy++ {
				for dx := 0; dx < window; dx++ {
					args = append(args, g.At(oy*window+dy, ox*window+dx))
				}
			}
			out.Cells[oy*ow+ox] = e.Ev.Max(args)
		}
	}
	return out
}

// AvgPool applies average pooling. For class prediction the 1/w² factor is
// irrelevant (it is a global injective map), so the cell is the plain sum.
func (e *Engine) AvgPool(g Grid, window int) Grid {
	if window <= 1 {
		return g
	}
	oh, ow := g.H/window, g.W/window
	out := Grid{H: oh, W: ow, Cells: make([]sym.ID, oh*ow)}
	terms := make([]sym.Term, 0, window*window)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			terms = terms[:0]
			for dy := 0; dy < window; dy++ {
				for dx := 0; dx < window; dx++ {
					terms = append(terms, sym.Term{Coef: e.Ev.One(), X: g.At(oy*window+dy, ox*window+dx)})
				}
			}
			out.Cells[oy*ow+ox] = e.Ev.Sum(terms)
		}
	}
	return out
}

// Add sums two grids elementwise (a residual connection), followed by the
// join's activation (the ReLU after a residual add).
func (e *Engine) Add(a, b Grid) Grid {
	if a.H != b.H || a.W != b.W {
		panic(fmt.Sprintf("symconv: Add shape mismatch %dx%d vs %dx%d", a.H, a.W, b.H, b.W))
	}
	out := Grid{H: a.H, W: a.W, Cells: make([]sym.ID, len(a.Cells))}
	for i := range a.Cells {
		out.Cells[i] = e.Ev.Act(e.Ev.Add(a.Cells[i], b.Cells[i]))
	}
	return out
}

// Signature returns an order-free fingerprint of the multiset of cell
// expressions: grids of one shape with equal signatures have (generically)
// equal nnz.
func Signature(g Grid) uint64 { return sym.MultisetHash(g.Cells) }

// ClassPattern converts a sequence of comparable observations into a
// canonical class-label pattern: the first distinct value becomes class 0,
// the next class 1, and so on (ABCC → [0 1 2 2]).
func ClassPattern[T comparable](vals []T) []int {
	classes := make(map[T]int)
	out := make([]int, len(vals))
	for i, v := range vals {
		c, ok := classes[v]
		if !ok {
			c = len(classes)
			classes[v] = c
		}
		out[i] = c
	}
	return out
}

// Refines reports whether partition p refines partition q (p makes at least
// q's distinctions: p_i == p_j implies q_i == q_j). A hypothesis's predicted
// pattern must refine the observed one, because expression equality forces
// nnz equality but not vice versa (the one-sided error of §5.4).
func Refines(p, q []int) bool {
	if len(p) != len(q) {
		return false
	}
	// For each p-class remember the q-class of its first member.
	rep := make(map[int]int)
	for i := range p {
		if qc, ok := rep[p[i]]; ok {
			if qc != q[i] {
				return false
			}
		} else {
			rep[p[i]] = q[i]
		}
	}
	return true
}

// SamePartition reports whether two label sequences induce the same
// partition.
func SamePartition(p, q []int) bool { return Refines(p, q) && Refines(q, p) }

// NumClasses returns the number of distinct classes in a pattern.
func NumClasses(p []int) int {
	seen := make(map[int]bool)
	for _, c := range p {
		seen[c] = true
	}
	return len(seen)
}

// PatternString renders a class pattern as letters (ABCC…), the notation
// used throughout the paper.
func PatternString(p []int) string {
	var b strings.Builder
	for _, c := range p {
		if c < 26 {
			b.WriteByte(byte('A' + c))
		} else {
			fmt.Fprintf(&b, "<%d>", c)
		}
	}
	return b.String()
}
