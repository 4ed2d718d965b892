package symconv

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/probe"
	"github.com/huffduff/huffduff/internal/tensor"
)

// TestSoundnessRandomStacks is the engine's central property: for random
// layer graphs with random weights, probe positions predicted equal by the
// symbolic engine must observe exactly equal nnz, at every node (the
// one-sided-error guarantee of §5.4 that the whole attack rests on). It
// covers straight conv stacks and graphs with residual adds and average
// pools, where sums re-associate and polynomial identity is coarser than
// structural identity.
func TestSoundnessRandomStacks(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soundness sweep")
	}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		checkSoundness(t, fmt.Sprintf("stack%d", trial), rng, randomStack(rng))
	}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		checkSoundness(t, fmt.Sprintf("graph%d", trial), rng, randomGraph(rng))
	}
}

// unit is one node of a random test graph. in holds producer node indices;
// -1 is the probe input.
type unit struct {
	op      unitOp
	k, s, p int // conv kernel/stride/max-pool window; avg-pool window in p
	in      [2]int
}

type unitOp int

const (
	opConv unitOp = iota // conv + bias, ReLU, then max pool when p > 1
	opAdd                // residual add, then ReLU
	opAvg                // average pool
)

func (u unit) String() string {
	switch u.op {
	case opConv:
		return fmt.Sprintf("conv(k%d s%d p%d <- %d)", u.k, u.s, u.p, u.in[0])
	case opAdd:
		return fmt.Sprintf("add(%d, %d)", u.in[0], u.in[1])
	}
	return fmt.Sprintf("avgpool(%d <- %d)", u.p, u.in[0])
}

var geoms = []struct{ k, s, p int }{
	{1, 1, 1}, {3, 1, 1}, {3, 1, 2}, {3, 2, 1}, {5, 1, 1}, {5, 2, 1}, {7, 1, 1},
}

// convOut is a same-padded conv+pool's output side, for an h×h input.
func convOut(h, k, s, p int) int { return ((h+2*((k-1)/2)-k)/s + 1) / p }

// randomStack is a straight chain of 1–3 convs on a 32×32 input.
func randomStack(rng *rand.Rand) []unit {
	depth := 1 + rng.Intn(3)
	var units []unit
	h := 32
	for d := 0; d < depth; d++ {
		g := geoms[rng.Intn(len(geoms))]
		nh := convOut(h, g.k, g.s, g.p)
		if nh < 4 {
			break
		}
		units = append(units, unit{op: opConv, k: g.k, s: g.s, p: g.p, in: [2]int{d - 1}})
		h = nh
	}
	return units
}

// randomGraph is a DAG of 3–7 nodes: convs on any earlier node, residual
// adds of two equal-sized earlier nodes, and 2× or global average pools.
func randomGraph(rng *rand.Rand) []unit {
	n := 3 + rng.Intn(5)
	units := []unit{{op: opConv, k: 3, s: 1, p: 1, in: [2]int{-1}}}
	side := []int{32}
	for len(units) < n {
		last := len(units) - 1
		switch r := rng.Intn(10); {
		case r >= 4 && r < 7:
			var peers []int
			for j := 0; j < last; j++ {
				if side[j] == side[last] {
					peers = append(peers, j)
				}
			}
			if len(peers) > 0 {
				units = append(units, unit{op: opAdd, in: [2]int{peers[rng.Intn(len(peers))], last}})
				side = append(side, side[last])
				continue
			}
		case r >= 7:
			src := rng.Intn(len(units))
			if h := side[src]; h >= 2 && h%2 == 0 {
				w := 2
				if rng.Intn(3) == 0 {
					w = h
				}
				units = append(units, unit{op: opAvg, p: w, in: [2]int{src}})
				side = append(side, h/w)
				continue
			}
		}
		src := rng.Intn(len(units))
		g := geoms[rng.Intn(len(geoms))]
		if h := convOut(side[src], g.k, g.s, g.p); h >= 2 && side[src] >= g.k {
			units = append(units, unit{op: opConv, k: g.k, s: g.s, p: g.p, in: [2]int{src}})
			side = append(side, h)
		}
	}
	return units
}

// checkSoundness predicts every node's class pattern symbolically, observes
// it numerically with random multichannel weights, and requires each
// prediction to refine its observation.
func checkSoundness(t *testing.T, name string, rng *rand.Rand, units []unit) {
	t.Helper()
	if len(units) == 0 {
		return
	}
	pat := probe.Pattern{M: 0, N: 1 + rng.Intn(2), Q: 8, FeatRow: 14}
	if pat.Validate(32, 32) != nil {
		return
	}

	// Symbolic per-node predictions.
	eng := NewEngine()
	pred := make([][]uint64, len(units))
	for q := 0; q < pat.Q; q++ {
		in := eng.ProbeGrid(pat, q, 32, 32)
		out := make([]Grid, len(units))
		src := func(i int) Grid {
			if i < 0 {
				return in
			}
			return out[i]
		}
		for i, u := range units {
			switch u.op {
			case opConv:
				out[i] = eng.MaxPool(eng.Conv(src(u.in[0]), fmt.Sprintf("%s_n%d", name, i), u.k, u.s), u.p)
			case opAdd:
				out[i] = eng.Add(src(u.in[0]), src(u.in[1]))
			case opAvg:
				out[i] = eng.AvgPool(src(u.in[0]), u.p)
			}
			pred[i] = append(pred[i], Signature(out[i]))
		}
	}

	// Numeric observation with random multichannel weights.
	channels := 2 + rng.Intn(4)
	convs := make([]*nn.Conv2D, len(units))
	for i, u := range units {
		if u.op != opConv {
			continue
		}
		inC := channels
		if u.in[0] < 0 {
			inC = 1
		}
		convs[i] = nn.NewConv2D(rng, inC, channels, u.k, u.s, nn.SamePad(u.k), 1, true)
		convs[i].Bias.W.Uniform(rng, -0.2, 0.2)
	}
	vals := probe.RandomValues(rng, pat)
	relu := nn.NewReLU()
	nnz := make([][]int, len(units))
	for q := 0; q < pat.Q; q++ {
		in := probe.Image(pat, vals, q, 1, 32, 32).Reshape(1, 1, 32, 32)
		out := make([]*tensor.Tensor, len(units))
		src := func(i int) *tensor.Tensor {
			if i < 0 {
				return in
			}
			return out[i]
		}
		for i, u := range units {
			switch u.op {
			case opConv:
				out[i] = relu.Forward(convs[i].Forward(src(u.in[0]), false), false)
				if u.p > 1 {
					out[i] = nn.NewMaxPool2D(u.p).Forward(out[i], false)
				}
			case opAdd:
				out[i] = relu.Forward(src(u.in[0]).Add(src(u.in[1])), false)
			case opAvg:
				out[i] = nn.NewAvgPool2D(u.p).Forward(src(u.in[0]), false)
			}
			nnz[i] = append(nnz[i], out[i].NNZ(0))
		}
	}

	for i, u := range units {
		p, o := ClassPattern(pred[i]), ClassPattern(nnz[i])
		if !Refines(p, o) {
			t.Fatalf("%s node %d %v of %v: prediction %s does not refine observation %s",
				name, i, u, units, PatternString(p), PatternString(o))
		}
	}
}
