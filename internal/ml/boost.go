package ml

import (
	"math"
	"sort"
)

// BoostConfig tunes the gradient-boosting classifier.
type BoostConfig struct {
	// Rounds is the number of boosting iterations.
	Rounds int
	// MaxDepth bounds each regression tree.
	MaxDepth int
	// LearningRate shrinks each tree's contribution.
	LearningRate float64
	// Seed reserved for subsampling extensions.
	Seed uint64
}

// GradientBoosting is a multiclass gradient-boosted-trees classifier
// with softmax cross-entropy loss: each round fits one regression
// tree per class to the negative gradient (residual p_k − 1{y=k}).
type GradientBoosting struct {
	cfg   BoostConfig
	trees [][]*regTree // [round][class]
	k     int
}

// NewGradientBoosting creates an unfitted model.
func NewGradientBoosting(cfg BoostConfig) *GradientBoosting {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 25
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.2
	}
	return &GradientBoosting{cfg: cfg}
}

// Name implements Classifier.
func (g *GradientBoosting) Name() string { return "GB" }

// Fit implements Classifier.
func (g *GradientBoosting) Fit(X [][]float64, y []int, k int) error {
	g.k = k
	g.trees = g.trees[:0]
	n := len(X)
	scores := make([][]float64, n) // F_k(x_i)
	for i := range scores {
		scores[i] = make([]float64, k)
	}
	probs := make([]float64, k)
	resid := make([]float64, n)
	for round := 0; round < g.cfg.Rounds; round++ {
		roundTrees := make([]*regTree, k)
		for c := 0; c < k; c++ {
			// Negative gradient of softmax CE w.r.t. F_c.
			for i := 0; i < n; i++ {
				softmaxInto(scores[i], probs)
				target := 0.0
				if y[i] == c {
					target = 1
				}
				resid[i] = target - probs[c]
			}
			tree := &regTree{maxDepth: g.cfg.MaxDepth, minLeaf: 4}
			tree.fit(X, resid)
			roundTrees[c] = tree
		}
		// Update scores after fitting the full round so classes are
		// symmetric within a round.
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				scores[i][c] += g.cfg.LearningRate * roundTrees[c].predict(X[i])
			}
		}
		g.trees = append(g.trees, roundTrees)
	}
	return nil
}

// Predict implements Classifier.
func (g *GradientBoosting) Predict(x []float64) int {
	scores := make([]float64, g.k)
	for _, round := range g.trees {
		for c, tree := range round {
			scores[c] += g.cfg.LearningRate * tree.predict(x)
		}
	}
	return argmax(scores)
}

func softmaxInto(logits, out []float64) {
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// regTree is a small CART regression tree (variance-reduction splits,
// mean-valued leaves) used as the boosting base learner.
type regTree struct {
	maxDepth int
	minLeaf  int
	nodes    []regNode
}

type regNode struct {
	feature   int // -1 for leaf
	threshold float64
	left      int
	right     int
	value     float64
}

func (t *regTree) fit(X [][]float64, y []float64) {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.build(X, y, idx, 0)
}

func (t *regTree) build(X [][]float64, y []float64, idx []int, depth int) int {
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	mean := sum / float64(len(idx))
	if depth >= t.maxDepth || len(idx) < 2*t.minLeaf {
		return t.leaf(mean)
	}
	feat, thr, ok := t.bestSplit(X, y, idx)
	if !ok {
		return t.leaf(mean)
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.minLeaf || len(right) < t.minLeaf {
		return t.leaf(mean)
	}
	pos := len(t.nodes)
	t.nodes = append(t.nodes, regNode{feature: feat, threshold: thr})
	l := t.build(X, y, left, depth+1)
	r := t.build(X, y, right, depth+1)
	t.nodes[pos].left, t.nodes[pos].right = l, r
	return pos
}

func (t *regTree) leaf(v float64) int {
	t.nodes = append(t.nodes, regNode{feature: -1, value: v})
	return len(t.nodes) - 1
}

// bestSplit maximizes the variance reduction (∝ sl²/nl + sr²/nr) with
// a single sorted sweep per feature, evaluating every value boundary
// in O(1) via running sums.
//
// Unlike DecisionTree, this keeps a per-node sort.Slice rather than
// presorting once per fit: sl sums float residuals in sorted order,
// so rows that tie on a feature value add up in whatever order the
// sort leaves them, and a different tie order can round sl — hence a
// score, a split and every later boosting round — differently. The
// classification tree's sums are integer-valued and exact, which is
// what lets it reuse one sort.
func (t *regTree) bestSplit(X [][]float64, y []float64, idx []int) (feat int, thr float64, ok bool) {
	d := len(X[0])
	n := len(idx)
	bestScore := math.Inf(-1)
	type pair struct {
		v, t float64
	}
	pairs := make([]pair, n)
	for f := 0; f < d; f++ {
		var total float64
		for i, r := range idx {
			pairs[i] = pair{X[r][f], y[r]}
			total += y[r]
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		if pairs[0].v == pairs[n-1].v {
			continue
		}
		var sl float64
		for i := 0; i < n-1; i++ {
			sl += pairs[i].t
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			nl, nr := float64(i+1), float64(n-i-1)
			if int(nl) < t.minLeaf || int(nr) < t.minLeaf {
				continue
			}
			sr := total - sl
			score := sl*sl/nl + sr*sr/nr
			if score > bestScore {
				bestScore, feat, thr, ok = score, f, pairs[i].v, true
			}
		}
	}
	return feat, thr, ok
}

func (t *regTree) predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	pos := 0
	for {
		n := t.nodes[pos]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			pos = n.left
		} else {
			pos = n.right
		}
	}
}
