package ml

import (
	"math"
	"math/rand/v2"
)

// ForestConfig tunes the random forest.
type ForestConfig struct {
	// Trees is the ensemble size.
	Trees int
	// MaxDepth and MinLeaf configure each member tree.
	MaxDepth, MinLeaf int
	// Seed drives bootstrapping and per-tree randomness.
	Seed uint64
}

// RandomForest is a bagged ensemble of CART trees with √d feature
// subsampling per node and majority voting.
type RandomForest struct {
	cfg   ForestConfig
	trees []*DecisionTree
	k     int
}

// NewRandomForest creates an unfitted forest.
func NewRandomForest(cfg ForestConfig) *RandomForest {
	if cfg.Trees <= 0 {
		cfg.Trees = 30
	}
	return &RandomForest{cfg: cfg}
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "RF" }

// Fit implements Classifier.
func (f *RandomForest) Fit(X [][]float64, y []int, k int) error {
	f.k = k
	f.trees = f.trees[:0]
	rng := rand.New(rand.NewPCG(f.cfg.Seed, f.cfg.Seed^0x165667b19e3779f9))
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	mtry := int(math.Ceil(math.Sqrt(float64(d))))
	for b := 0; b < f.cfg.Trees; b++ {
		// Bootstrap sample.
		bx := make([][]float64, n)
		by := make([]int, n)
		for i := 0; i < n; i++ {
			j := rng.IntN(n)
			bx[i], by[i] = X[j], y[j]
		}
		tree := NewDecisionTree(TreeConfig{
			MaxDepth: f.cfg.MaxDepth,
			MinLeaf:  f.cfg.MinLeaf,
			Features: mtry,
			Seed:     f.cfg.Seed + uint64(b)*2654435761,
		})
		if err := tree.Fit(bx, by, k); err != nil {
			return err
		}
		f.trees = append(f.trees, tree)
	}
	return nil
}

// Predict implements Classifier (majority vote).
func (f *RandomForest) Predict(x []float64) int {
	votes := make([]int, f.k)
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	return majorityClass(votes)
}
