// Package binning implements NetDPSyn's pre-processing (§3.2 of the
// paper): a type-dependent binning pass that gives every network field
// an initial discretization suited to its semantics, followed by a
// frequency-dependent pass that merges low-count bins using *noisy*
// counts (so the merge decisions themselves satisfy DP), plus the
// inverse decoding used during record synthesis (§3.4), including the
// network-validity constraints and timestamp reconstruction from the
// auxiliary tsdiff attribute.
//
// Type-dependent rules (one per dataset.Kind):
//
//   - IP: frequent addresses keep their own bin; low-count addresses
//     are merged by /30 prefix (and progressively shorter prefixes if
//     still too sparse).
//   - Port: the well-known ports below 1024 are kept away from
//     binning; higher ports are binned with width 10.
//   - Categorical: never binned (small domains).
//   - Numeric: binned under the log transform log(1+x), giving far
//     fewer bins than linear binning.
//   - Timestamp: coarse equal-width bins; actual values are
//     reconstructed from tsdiff at decode time.
package binning

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
)

// Config tunes the binning rules. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// PortBinWidth is the bin width for ports ≥ CommonPortLimit.
	PortBinWidth int
	// CommonPortLimit is the boundary below which ports are kept
	// un-binned (the paper uses 1024).
	CommonPortLimit int
	// LogBinsPerUnit controls numeric binning granularity: the bin of
	// x is floor(log(1+x) · LogBinsPerUnit).
	LogBinsPerUnit float64
	// TimestampBins is the number of equal-width timestamp bins.
	TimestampBins int
	// MergeSigmas is the frequency-dependent merge threshold in units
	// of the noise standard deviation: bins with noisy count below
	// MergeSigmas·σ are merged.
	MergeSigmas float64
	// MinBinFraction floors the merge threshold at this fraction of
	// the record count. At large ε the noise σ (and with it the
	// 3σ threshold) goes to zero, which would leave near-singleton
	// bins everywhere and swamp the synthesis with million-cell
	// marginals; low-count bins are merged regardless of noise, as
	// in PrivSyn's low-count collapsing.
	MinBinFraction float64
	// MaxBinsPerAttr caps an attribute's final bin count; the merge
	// threshold is raised until the cap holds (keeps marginal tables
	// and GUM tractable).
	MaxBinsPerAttr int
}

// DefaultConfig returns the configuration used throughout the
// evaluation.
func DefaultConfig() Config {
	return Config{
		PortBinWidth:    10,
		CommonPortLimit: 1024,
		LogBinsPerUnit:  3,
		TimestampBins:   64,
		MergeSigmas:     3,
		MinBinFraction:  0.002,
		MaxBinsPerAttr:  2048,
	}
}

// Bin is a contiguous inclusive range [Lo, Hi] of raw values.
// Categorical bins and identity bins have Lo == Hi.
type Bin struct {
	Lo, Hi int64
}

// Width returns the number of raw values the bin covers.
func (b Bin) Width() int64 { return b.Hi - b.Lo + 1 }

// Contains reports whether v falls inside the bin.
func (b Bin) Contains(v int64) bool { return v >= b.Lo && v <= b.Hi }

// Attr is the binning of a single attribute: the final ordered bins,
// the noisy 1-way marginal over those bins (published during the
// frequency-dependent pass and reusable downstream), and the
// kind-specific lookup structures.
type Attr struct {
	Field dataset.Field
	Bins  []Bin
	// NoisyCounts is the DP-protected 1-way marginal over Bins
	// (non-negative, from the binning budget).
	NoisyCounts []float64
	// Sigma is the per-cell Gaussian noise σ used when publishing
	// NoisyCounts (merged bins aggregate several noisy cells, so
	// their effective σ is larger; Sigma records the base level).
	Sigma float64
	// lookup maps exact raw values to bin codes for identity-style
	// kinds (IP, port, categorical).
	lookup map[int64]int32
	// sorted bin Lo bounds for range search on ordered kinds.
	los []int64
}

// Domain returns the number of bins.
func (a *Attr) Domain() int { return len(a.Bins) }

// Encoder holds the per-attribute binning of a table and performs
// encoding (raw → codes) and decoding (codes → raw).
type Encoder struct {
	Attrs []Attr
	cfg   Config
	// dicts are shared with the source table so categorical decode
	// can reproduce string values.
	dicts []*dataset.Dict
}

// Build derives the binning from a table. rhoBin is the zCDP budget
// for the data-dependent (frequency) pass — NetDPSyn allocates 0.1ρ —
// split evenly across attributes. seed drives the noise.
func Build(t *dataset.Table, cfg Config, rhoBin float64, seed uint64) (*Encoder, error) {
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("binning: empty table")
	}
	d := t.Schema().NumFields()
	rhoPer := rhoBin / float64(d)
	enc := &Encoder{cfg: cfg, dicts: make([]*dataset.Dict, d)}
	for i, f := range t.Schema().Fields {
		enc.dicts[i] = t.Dict(i)
		attr, err := buildAttr(t, i, f, cfg, rhoPer, seed+uint64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("binning: field %q: %w", f.Name, err)
		}
		enc.Attrs = append(enc.Attrs, *attr)
	}
	return enc, nil
}

// buildAttr runs the two binning passes for one attribute.
func buildAttr(t *dataset.Table, col int, f dataset.Field, cfg Config, rho float64, seed uint64) (*Attr, error) {
	values := t.Column(col)
	var initial []Bin
	switch f.Kind {
	case dataset.KindIP:
		initial = identityBins(values)
	case dataset.KindPort:
		initial = portBins(values, cfg)
	case dataset.KindCategorical:
		initial = identityBins(values)
	case dataset.KindNumeric:
		initial = logBins(values, cfg.LogBinsPerUnit)
	case dataset.KindTimestamp:
		initial = rangeBins(values, cfg.TimestampBins)
	default:
		return nil, fmt.Errorf("unknown kind %v", f.Kind)
	}

	// Exact counts over the initial bins (private intermediate).
	counts := countBins(initial, values)

	// Publish noisy counts with the binning budget; the Gaussian σ
	// also defines the merge threshold.
	gm, err := dp.NewGaussian(1, rho, seed)
	if err != nil {
		return nil, err
	}
	noisy := gm.Perturb(counts)
	threshold := cfg.MergeSigmas * gm.Sigma
	if floor := cfg.MinBinFraction * float64(len(values)); threshold < floor {
		threshold = floor
	}

	attr := &Attr{Field: f, Sigma: gm.Sigma}
	switch f.Kind {
	case dataset.KindCategorical:
		// Categorical attributes with small domains are not binned.
		attr.Bins, attr.NoisyCounts = initial, clampNonNeg(noisy)
	case dataset.KindIP:
		attr.Bins, attr.NoisyCounts = mergeIPBins(initial, noisy, threshold, cfg.MaxBinsPerAttr)
	default:
		attr.Bins, attr.NoisyCounts = mergeAdjacent(initial, noisy, threshold, cfg.MaxBinsPerAttr)
	}
	attr.buildLookup()
	return attr, nil
}

// identityBins returns one bin per distinct value, sorted.
func identityBins(values []int64) []Bin {
	seen := make(map[int64]struct{})
	for _, v := range values {
		seen[v] = struct{}{}
	}
	distinct := make([]int64, 0, len(seen))
	for v := range seen {
		distinct = append(distinct, v)
	}
	sort.Slice(distinct, func(a, b int) bool { return distinct[a] < distinct[b] })
	bins := make([]Bin, len(distinct))
	for i, v := range distinct {
		bins[i] = Bin{Lo: v, Hi: v}
	}
	return bins
}

// portBins keeps observed ports below the common-port limit un-binned
// and groups higher ports into fixed-width ranges.
func portBins(values []int64, cfg Config) []Bin {
	limit := int64(cfg.CommonPortLimit)
	w := int64(cfg.PortBinWidth)
	low := make(map[int64]struct{})
	high := make(map[int64]struct{})
	for _, v := range values {
		if v < limit {
			low[v] = struct{}{}
		} else {
			high[(v-limit)/w] = struct{}{}
		}
	}
	var bins []Bin
	for v := range low {
		bins = append(bins, Bin{Lo: v, Hi: v})
	}
	for g := range high {
		lo := limit + g*w
		hi := lo + w - 1
		if hi > 65535 {
			hi = 65535 // port numbers must stay below 65536 (§3.4)
		}
		bins = append(bins, Bin{Lo: lo, Hi: hi})
	}
	sort.Slice(bins, func(a, b int) bool { return bins[a].Lo < bins[b].Lo })
	return bins
}

// logBins bins non-negative numerics under log(1+x) with k bins per
// log unit: boundaries at ceil(e^(i/k) − 1). Bin boundaries are
// data-independent; consecutive boundaries that round to the same
// integer are collapsed, so bins are contiguous and non-overlapping.
func logBins(values []int64, k float64) []Bin {
	var maxV int64
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	var bins []Bin
	lo := int64(0)
	for i := 1; ; i++ {
		next := int64(math.Ceil(math.Expm1(float64(i) / k)))
		if next <= lo {
			continue // empty integer range at this granularity
		}
		bins = append(bins, Bin{Lo: lo, Hi: next - 1})
		if next-1 >= maxV {
			break
		}
		lo = next
	}
	return bins
}

// rangeBins splits [min, max] into n equal-width bins.
func rangeBins(values []int64, n int) []Bin {
	mn, mx := values[0], values[0]
	for _, v := range values {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if n < 1 {
		n = 1
	}
	span := mx - mn + 1
	w := span / int64(n)
	if w < 1 {
		w = 1
	}
	var bins []Bin
	for lo := mn; lo <= mx; lo += w {
		hi := lo + w - 1
		if hi > mx {
			hi = mx
		}
		bins = append(bins, Bin{Lo: lo, Hi: hi})
	}
	return bins
}

// countBins tallies raw values into the initial bins by binary search
// on the bin lower bounds (bins are sorted and non-overlapping for
// every initial binning).
func countBins(bins []Bin, values []int64) []float64 {
	counts := make([]float64, len(bins))
	los := make([]int64, len(bins))
	for i, b := range bins {
		los[i] = b.Lo
	}
	for _, v := range values {
		idx := sort.Search(len(los), func(i int) bool { return los[i] > v }) - 1
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
	return counts
}

func clampNonNeg(xs []float64) []float64 {
	for i, x := range xs {
		if x < 0 {
			xs[i] = 0
		}
	}
	return xs
}

// mergeAdjacent merges consecutive low-count bins until every merged
// bin's noisy count reaches the threshold (or the run ends), then
// enforces the bin cap by repeatedly merging the smallest adjacent
// pair.
func mergeAdjacent(bins []Bin, noisy []float64, threshold float64, maxBins int) ([]Bin, []float64) {
	var outB []Bin
	var outC []float64
	i := 0
	for i < len(bins) {
		b := bins[i]
		c := noisy[i]
		j := i + 1
		for c < threshold && j < len(bins) {
			b.Hi = bins[j].Hi
			c += noisy[j]
			j++
		}
		if c < 0 {
			c = 0
		}
		outB = append(outB, b)
		outC = append(outC, c)
		i = j
	}
	for len(outB) > maxBins && len(outB) > 1 {
		// Merge the adjacent pair with the smallest combined count.
		best, bestC := 0, math.Inf(1)
		for k := 0; k+1 < len(outB); k++ {
			if s := outC[k] + outC[k+1]; s < bestC {
				best, bestC = k, s
			}
		}
		outB[best].Hi = outB[best+1].Hi
		outC[best] += outC[best+1]
		outB = append(outB[:best+1], outB[best+2:]...)
		outC = append(outC[:best+1], outC[best+2:]...)
	}
	return outB, outC
}

// mergeIPBins keeps frequent addresses as singleton bins and groups
// the rest by /30 prefix, widening the prefix (/30 → /26 → /22 → /18
// → /14 → /10) while a group remains under the threshold or the bin
// cap is exceeded.
func mergeIPBins(bins []Bin, noisy []float64, threshold float64, maxBins int) ([]Bin, []float64) {
	type entry struct {
		addr  int64
		count float64
	}
	var keep []entry
	var low []entry
	for i, b := range bins {
		if noisy[i] >= threshold {
			keep = append(keep, entry{b.Lo, noisy[i]})
		} else {
			low = append(low, entry{b.Lo, noisy[i]})
		}
	}
	prefixes := []uint{30, 26, 22, 18, 14, 10}
	var outB []Bin
	var outC []float64
	for p := 0; p < len(prefixes); p++ {
		bits := prefixes[p]
		groups := make(map[int64]float64)
		for _, e := range low {
			groups[prefixBase(e.addr, bits)] += e.count
		}
		// Groups that clear the threshold become final bins; the rest
		// go another round with a wider prefix, unless this is the
		// last level or the count already fits the cap.
		var next []entry
		final := p == len(prefixes)-1
		for base, c := range groups {
			if c >= threshold || final {
				outB = append(outB, Bin{Lo: base, Hi: base + int64(1)<<(32-bits) - 1})
				if c < 0 {
					c = 0
				}
				outC = append(outC, c)
			} else {
				next = append(next, entry{base, c})
			}
		}
		// Pending groups regroup at the next level in address order:
		// summing them in map order would make the merged noisy counts
		// differ in their last bits from run to run.
		slices.SortFunc(next, func(a, b entry) int { return cmp.Compare(a.addr, b.addr) })
		low = next
		if len(low) == 0 {
			break
		}
	}
	for _, e := range keep {
		outB = append(outB, Bin{Lo: e.addr, Hi: e.addr})
		outC = append(outC, e.count)
	}
	sortBins(&outB, &outC)
	// Enforce the cap by merging lowest-count neighbours.
	for len(outB) > maxBins && len(outB) > 1 {
		best, bestC := 0, math.Inf(1)
		for k := 0; k+1 < len(outB); k++ {
			if s := outC[k] + outC[k+1]; s < bestC {
				best, bestC = k, s
			}
		}
		outB[best].Hi = outB[best+1].Hi
		outC[best] += outC[best+1]
		outB = append(outB[:best+1], outB[best+2:]...)
		outC = append(outC[:best+1], outC[best+2:]...)
	}
	return outB, outC
}

func prefixBase(addr int64, bits uint) int64 {
	mask := int64(0xFFFFFFFF) << (32 - bits) & 0xFFFFFFFF
	return addr & mask
}

func sortBins(bins *[]Bin, counts *[]float64) {
	idx := make([]int, len(*bins))
	for i := range idx {
		idx[i] = i
	}
	// Lo ties are real: a kept singleton [a, a] and the /30 group
	// bin [a, a+3] share a lower bound. Break them on Hi so the bin
	// order (and with it every downstream code assignment) does not
	// depend on map-iteration order.
	sort.Slice(idx, func(a, b int) bool {
		ba, bb := (*bins)[idx[a]], (*bins)[idx[b]]
		if ba.Lo != bb.Lo {
			return ba.Lo < bb.Lo
		}
		return ba.Hi < bb.Hi
	})
	nb := make([]Bin, len(idx))
	nc := make([]float64, len(idx))
	for i, j := range idx {
		nb[i] = (*bins)[j]
		nc[i] = (*counts)[j]
	}
	*bins, *counts = nb, nc
}

// buildLookup prepares the value→code structures.
func (a *Attr) buildLookup() {
	a.los = make([]int64, len(a.Bins))
	for i, b := range a.Bins {
		a.los[i] = b.Lo
	}
	if a.Field.Kind == dataset.KindIP || a.Field.Kind == dataset.KindCategorical || a.Field.Kind == dataset.KindPort {
		a.lookup = make(map[int64]int32)
		for i, b := range a.Bins {
			if b.Lo == b.Hi {
				a.lookup[b.Lo] = int32(i)
			}
		}
	}
}

// Code maps a raw value to its bin code (nearest bin for values that
// fall between bins).
func (a *Attr) Code(v int64) int32 {
	if a.lookup != nil {
		if c, ok := a.lookup[v]; ok {
			return c
		}
	}
	idx := sort.Search(len(a.los), func(i int) bool { return a.los[i] > v }) - 1
	if idx < 0 {
		idx = 0
	}
	// IP range bins can enclose kept singleton bins, so the bin with
	// the largest Lo ≤ v is not necessarily the one containing v:
	// walk back to the nearest containing bin.
	for j := idx; j >= 0 && j > idx-8; j-- {
		if a.Bins[j].Contains(v) {
			return int32(j)
		}
	}
	return int32(idx)
}

// Sample draws a raw value from bin code c: uniform within the bin
// range (the paper's decoding rule for most fields).
func (a *Attr) Sample(rng *rand.Rand, c int32) int64 {
	b := a.Bins[int(c)]
	if b.Lo == b.Hi {
		return b.Lo
	}
	return b.Lo + rng.Int64N(b.Width())
}

// SampleGaussian draws a raw value from bin c under a Gaussian
// centered mid-bin with σ = width/4, clamped to the bin and rounded —
// the paper's tsdiff decoding rule.
func (a *Attr) SampleGaussian(rng *rand.Rand, c int32) int64 {
	b := a.Bins[int(c)]
	if b.Lo == b.Hi {
		return b.Lo
	}
	mid := float64(b.Lo+b.Hi) / 2
	sd := float64(b.Width()) / 4
	v := int64(math.Round(mid + rng.NormFloat64()*sd))
	if v < b.Lo {
		v = b.Lo
	}
	if v > b.Hi {
		v = b.Hi
	}
	return v
}
