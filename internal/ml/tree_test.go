package ml

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// refFit is the per-node-sort CART builder that presorted Fit
// replaced: every node copies its rows' (value, class) pairs per
// feature, re-sorts them and sweeps, then splits its index list into
// freshly allocated left and right lists. It is kept as the oracle
// the presorted builder must match node for node.
func refFit(t *DecisionTree, X [][]float64, y []int, k int) {
	t.k = k
	t.nodes = t.nodes[:0]
	t.rng = rand.New(rand.NewPCG(t.cfg.Seed, t.cfg.Seed^0xc2b2ae3d27d4eb4f))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	refBuild(t, X, y, idx, 0)
}

func refBuild(t *DecisionTree, X [][]float64, y []int, idx []int, depth int) int {
	counts := make([]int, t.k)
	for _, i := range idx {
		counts[y[i]]++
	}
	best := majorityClass(counts)
	pure := counts[best] == len(idx)
	if depth >= t.cfg.MaxDepth || len(idx) < 2*t.cfg.MinLeaf || pure {
		return t.leaf(best)
	}
	feat, thr, ok := refBestSplit(t, X, y, idx)
	if !ok {
		return t.leaf(best)
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.cfg.MinLeaf || len(right) < t.cfg.MinLeaf {
		return t.leaf(best)
	}
	pos := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: feat, threshold: thr})
	l := refBuild(t, X, y, left, depth+1)
	r := refBuild(t, X, y, right, depth+1)
	t.nodes[pos].left, t.nodes[pos].right = l, r
	return pos
}

func refBestSplit(t *DecisionTree, X [][]float64, y []int, idx []int) (feat int, thr float64, ok bool) {
	d := len(X[0])
	feats := make([]int, d)
	for i := range feats {
		feats[i] = i
	}
	if t.cfg.Features > 0 && t.cfg.Features < d {
		t.rng.Shuffle(d, func(a, b int) { feats[a], feats[b] = feats[b], feats[a] })
		feats = feats[:t.cfg.Features]
	}
	bestScore := math.Inf(-1)
	n := len(idx)
	type pair struct {
		v float64
		c int
	}
	pairs := make([]pair, n)
	countsL := make([]float64, t.k)
	countsR := make([]float64, t.k)
	minLeaf := t.cfg.MinLeaf
	for _, f := range feats {
		for i, r := range idx {
			pairs[i] = pair{X[r][f], y[r]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		if pairs[0].v == pairs[n-1].v {
			continue
		}
		for i := range countsL {
			countsL[i] = 0
			countsR[i] = 0
		}
		for _, p := range pairs {
			countsR[p.c]++
		}
		var sumSqL, sumSqR float64
		for _, c := range countsR {
			sumSqR += c * c
		}
		for i := 0; i < n-1; i++ {
			c := pairs[i].c
			sumSqL += 2*countsL[c] + 1
			sumSqR -= 2*countsR[c] - 1
			countsL[c]++
			countsR[c]--
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			nl, nr := float64(i+1), float64(n-i-1)
			if int(nl) < minLeaf || int(nr) < minLeaf {
				continue
			}
			score := sumSqL/nl + sumSqR/nr
			if score > bestScore {
				bestScore, feat, thr, ok = score, f, pairs[i].v, true
			}
		}
	}
	return feat, thr, ok
}

// tieData draws an n×d integer dataset whose features take only a few
// distinct values each (so almost every sorted list is full of ties),
// with labels that partly follow the first feature.
func tieData(rng *rand.Rand, n, d, k int) ([][]float64, []int) {
	levels := make([]int, d)
	for f := range levels {
		levels[f] = 1 + rng.IntN(6)
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		for f := range row {
			row[f] = float64(rng.IntN(levels[f]) - levels[f]/2)
		}
		X[i] = row
		if rng.IntN(3) == 0 {
			y[i] = rng.IntN(k)
		} else {
			y[i] = int(math.Abs(row[0])) % k
		}
	}
	return X, y
}

func TestDecisionTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 51))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.IntN(200)
		if trial%10 == 0 {
			n = 2 + rng.IntN(3) // the smallest splittable sets
		}
		d := 1 + rng.IntN(6)
		k := 1 + rng.IntN(4)
		X, y := tieData(rng, n, d, k)
		cfg := TreeConfig{
			MaxDepth: 1 + rng.IntN(20),
			MinLeaf:  1 + rng.IntN(5),
			Seed:     rng.Uint64(),
		}
		if rng.IntN(2) == 0 {
			cfg.Features = 1 + rng.IntN(d)
		}
		got := NewDecisionTree(cfg)
		if err := got.Fit(X, y, k); err != nil {
			t.Fatal(err)
		}
		want := NewDecisionTree(cfg)
		refFit(want, X, y, k)
		if !reflect.DeepEqual(got.nodes, want.nodes) {
			t.Fatalf("trial %d (n=%d d=%d k=%d cfg=%+v): presorted tree differs from the per-node-sort reference\n got  %v\n want %v",
				trial, n, d, k, cfg, got.nodes, want.nodes)
		}
	}
}

// refForest replays RandomForest.Fit's bootstrap draws with reference
// member trees.
func refForest(cfg ForestConfig, X [][]float64, y []int, k int) []*DecisionTree {
	f := NewRandomForest(cfg)
	rng := rand.New(rand.NewPCG(f.cfg.Seed, f.cfg.Seed^0x165667b19e3779f9))
	n, d := len(X), len(X[0])
	mtry := int(math.Ceil(math.Sqrt(float64(d))))
	var trees []*DecisionTree
	for b := 0; b < f.cfg.Trees; b++ {
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
		refFit(tree, bx, by, k)
		trees = append(trees, tree)
	}
	return trees
}

func TestRandomForestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 61))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(150)
		d := 1 + rng.IntN(8)
		k := 1 + rng.IntN(4)
		X, y := tieData(rng, n, d, k)
		cfg := ForestConfig{Trees: 5, MaxDepth: 1 + rng.IntN(12), MinLeaf: 1 + rng.IntN(3), Seed: rng.Uint64()}
		rf := NewRandomForest(cfg)
		if err := rf.Fit(X, y, k); err != nil {
			t.Fatal(err)
		}
		want := refForest(cfg, X, y, k)
		for b, tree := range rf.trees {
			if !reflect.DeepEqual(tree.nodes, want[b].nodes) {
				t.Fatalf("trial %d tree %d: presorted member differs from the reference", trial, b)
			}
		}
		for i, x := range X {
			votes := make([]int, k)
			for _, tree := range want {
				votes[tree.Predict(x)]++
			}
			if got, exp := rf.Predict(x), majorityClass(votes); got != exp {
				t.Fatalf("trial %d row %d: forest predicts %d, reference %d", trial, i, got, exp)
			}
		}
	}
}

func TestDecisionTreeDegenerateInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		X    [][]float64
		y    []int
		want int
	}{
		{"no rows", nil, nil, 0},
		{"no features", [][]float64{{}, {}, {}}, []int{1, 1, 0}, 1},
		{"one row", [][]float64{{4}}, []int{1}, 1},
	} {
		dt := NewDecisionTree(TreeConfig{})
		if err := dt.Fit(tc.X, tc.y, 2); err != nil {
			t.Fatal(err)
		}
		if len(dt.nodes) != 1 || dt.nodes[0].feature != -1 || dt.nodes[0].class != tc.want {
			t.Errorf("%s: nodes = %v, want one leaf of class %d", tc.name, dt.nodes, tc.want)
		}
	}
}

// fitBenchData is a 2k×10 table shaped like the evaluation features:
// a few wide continuous columns, several low-cardinality ones, and a
// 4-class label that depends on both.
func fitBenchData() ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(2000, 10))
	X := make([][]float64, 2000)
	y := make([]int, len(X))
	for i := range X {
		row := make([]float64, 10)
		for f := range row {
			if f < 4 {
				row[f] = math.Floor(rng.ExpFloat64() * 1000)
			} else {
				row[f] = float64(rng.IntN(2 + f))
			}
		}
		X[i] = row
		y[i] = (int(row[0])/300 + int(row[5])) % 4
		if rng.IntN(5) == 0 {
			y[i] = rng.IntN(4)
		}
	}
	return X, y
}

func BenchmarkDecisionTreeFit(b *testing.B) {
	X, y := fitBenchData()
	dt := NewDecisionTree(TreeConfig{MaxDepth: 12, MinLeaf: 1, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dt.Fit(X, y, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecisionTreeFitReference times the per-node-sort oracle on
// the same table, for comparison.
func BenchmarkDecisionTreeFitReference(b *testing.B) {
	X, y := fitBenchData()
	dt := NewDecisionTree(TreeConfig{MaxDepth: 12, MinLeaf: 1, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refFit(dt, X, y, 4)
	}
}
