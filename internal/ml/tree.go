package ml

import (
	"math"
	"math/rand/v2"

	"github.com/netdpsyn/netdpsyn/internal/radix"
)

// TreeConfig tunes the CART decision tree.
type TreeConfig struct {
	// MaxDepth bounds the tree depth.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// Features caps the number of features examined per node
	// (0 = all; random forests set √d).
	Features int
	// Seed drives feature sampling.
	Seed uint64
}

// DecisionTree is a CART classifier with Gini-impurity splits.
type DecisionTree struct {
	cfg   TreeConfig
	nodes []treeNode
	k     int
	rng   *rand.Rand
}

type treeNode struct {
	feature   int // -1 for leaf
	threshold float64
	left      int
	right     int
	class     int
}

// NewDecisionTree creates an unfitted tree.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	return &DecisionTree{cfg: cfg}
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "DT" }

// treeFit is one Fit's working state for presorted CART. sorted holds
// d lists of n row indices, list f (sorted[f*n:(f+1)*n]) ordered by
// X[r][f] ascending. Every node owns the same [lo,hi) segment of all
// d lists, and that segment holds exactly the node's rows, still
// sorted per feature; a split stably partitions each list's segment
// into its left and right children's segments. So the features are
// sorted once per Fit rather than once per node. Row indices are
// int32, which bounds a fit to 2³¹−1 rows.
type treeFit struct {
	X      [][]float64
	y      []int
	n, d   int
	sorted []int32
	left   []bool  // per row: goes left at the split being applied
	spill  []int32 // right-side rows while a segment is partitioned
	feats  []int
	counts []int // class counts of the node being built
	cl, cr []float64
}

// Fit implements Classifier. Features are assumed NaN-free.
func (t *DecisionTree) Fit(X [][]float64, y []int, k int) error {
	t.k = k
	t.nodes = t.nodes[:0]
	t.rng = rand.New(rand.NewPCG(t.cfg.Seed, t.cfg.Seed^0xc2b2ae3d27d4eb4f))
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	if d == 0 {
		// No feature to split on (or no rows): one majority leaf.
		counts := make([]int, k)
		for _, c := range y {
			counts[c]++
		}
		t.leaf(majorityClass(counts))
		return nil
	}
	w := &treeFit{
		X: X, y: y, n: n, d: d,
		sorted: make([]int32, d*n),
		left:   make([]bool, n),
		spill:  make([]int32, n),
		feats:  make([]int, d),
		counts: make([]int, k),
		cl:     make([]float64, k),
		cr:     make([]float64, k),
	}
	// The presort is a radix sort on order-preserving value keys.
	// Evaluation features are integer-valued codes, so most key bytes
	// are constant and their passes are skipped; with a comparison
	// sort this one-time sort was still ~3/4 of a fit. −0 and +0 get
	// distinct keys but compare equal in the sweep, so no split falls
	// between them.
	keys, kbuf := make([]uint64, n), make([]uint64, n)
	for f := 0; f < d; f++ {
		list := w.sorted[f*n : (f+1)*n]
		for r, row := range X {
			keys[r] = radix.Float64Key(row[f])
			list[r] = int32(r)
		}
		radix.Sort(keys, list, kbuf, w.spill)
	}
	t.build(w, 0, n, 0)
	return nil
}

// build grows the subtree over segment [lo,hi) and returns its node
// position. Nodes are numbered in preorder and the feature-sampling
// RNG is drawn in the same preorder, once per node that searches for
// a split.
func (t *DecisionTree) build(w *treeFit, lo, hi, depth int) int {
	counts := w.counts
	clear(counts)
	for _, r := range w.sorted[lo:hi] {
		counts[w.y[r]]++
	}
	best := majorityClass(counts)
	size := hi - lo
	pure := counts[best] == size
	if depth >= t.cfg.MaxDepth || size < 2*t.cfg.MinLeaf || pure {
		return t.leaf(best)
	}
	feat, thr, nl, ok := t.bestSplit(w, lo, hi)
	if !ok {
		return t.leaf(best)
	}
	w.partition(lo, hi, feat, nl)
	pos := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: feat, threshold: thr})
	l := t.build(w, lo, lo+nl, depth+1)
	r := t.build(w, lo+nl, hi, depth+1)
	t.nodes[pos].left, t.nodes[pos].right = l, r
	return pos
}

func (t *DecisionTree) leaf(class int) int {
	t.nodes = append(t.nodes, treeNode{feature: -1, class: class})
	return len(t.nodes) - 1
}

// bestSplit finds the lowest weighted-Gini split of segment [lo,hi)
// with one sweep per feature along its presorted list: class counts
// (and their sums of squares) are maintained incrementally, so every
// value boundary is evaluated in O(1). The weighted Gini
// nl·(1−Σp²) + nr·(1−Σp²) reduces to n − sumSqL/nl − sumSqR/nr, so it
// suffices to maximize sumSqL/nl + sumSqR/nr. It returns the left
// child's size nl alongside the split.
//
// The order of rows with equal values within a list never reaches
// the result: splits are scored only where the value changes, where
// the left side is every row ≤ that value whatever their order, and
// the running sums are integer-valued float64s, so they are exact.
// Trees are therefore node-for-node those of a per-node re-sort.
func (t *DecisionTree) bestSplit(w *treeFit, lo, hi int) (feat int, thr float64, nl int, ok bool) {
	d := w.d
	feats := w.feats
	for i := range feats {
		feats[i] = i
	}
	if t.cfg.Features > 0 && t.cfg.Features < d {
		// Fisher–Yates with rand.Shuffle's draw sequence.
		for i := d - 1; i > 0; i-- {
			j := int(t.rng.Uint64N(uint64(i + 1)))
			feats[i], feats[j] = feats[j], feats[i]
		}
		feats = feats[:t.cfg.Features]
	}
	bestScore := math.Inf(-1)
	n := hi - lo
	countsL, countsR := w.cl, w.cr
	var sumSq0 float64
	for _, c := range w.counts {
		sumSq0 += float64(c * c)
	}
	minLeaf := t.cfg.MinLeaf
	X, y := w.X, w.y
	for _, f := range feats {
		list := w.sorted[f*w.n+lo : f*w.n+hi]
		if X[list[0]][f] == X[list[n-1]][f] {
			continue
		}
		for c, v := range w.counts {
			countsL[c] = 0
			countsR[c] = float64(v)
		}
		sumSqL, sumSqR := 0.0, sumSq0
		v := X[list[0]][f]
		for i := 0; i < n-1; i++ {
			c := y[list[i]]
			sumSqL += 2*countsL[c] + 1
			sumSqR -= 2*countsR[c] - 1
			countsL[c]++
			countsR[c]--
			next := X[list[i+1]][f]
			if v == next {
				continue // not a boundary
			}
			cur := v
			v = next
			if i+1 < minLeaf || n-i-1 < minLeaf {
				continue
			}
			score := sumSqL/float64(i+1) + sumSqR/float64(n-i-1)
			if score > bestScore {
				bestScore, feat, thr, nl, ok = score, f, cur, i+1, true
			}
		}
	}
	return feat, thr, nl, ok
}

// partition splits segment [lo,hi) of every list between the two
// children: the first nl rows of feat's list (those ≤ the threshold)
// go left. Each list is partitioned stably, so both halves stay
// sorted; feat's own list is already in place.
func (w *treeFit) partition(lo, hi, feat, nl int) {
	n := w.n
	split := w.sorted[feat*n+lo : feat*n+hi]
	for _, r := range split[:nl] {
		w.left[r] = true
	}
	for _, r := range split[nl:] {
		w.left[r] = false
	}
	for f := 0; f < w.d; f++ {
		if f == feat {
			continue
		}
		list := w.sorted[f*n+lo : f*n+hi]
		l, s := 0, 0
		for _, r := range list {
			if w.left[r] {
				list[l] = r
				l++
			} else {
				w.spill[s] = r
				s++
			}
		}
		copy(list[l:], w.spill[:s])
	}
}

func majorityClass(counts []int) int {
	best, bv := 0, -1
	for c, v := range counts {
		if v > bv {
			best, bv = c, v
		}
	}
	return best
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(x []float64) int {
	if len(t.nodes) == 0 {
		return 0
	}
	pos := 0
	for {
		n := t.nodes[pos]
		if n.feature < 0 {
			return n.class
		}
		if x[n.feature] <= n.threshold {
			pos = n.left
		} else {
			pos = n.right
		}
	}
}
