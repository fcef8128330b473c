package main

import (
	"cmp"
	"fmt"
	"slices"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/stats"
)

// fidelityErr is the paper's Appendix E attribute-wise distance between
// a raw trace and its synthetic release, averaged over the raw
// schema's fields (lower is better). Categorical fields score the
// Jensen-Shannon divergence of their distributions, as Appendix E
// defines them:
//
//   - IP addresses: the descending rank-frequency curves (SA, DA);
//   - ports: histograms over 0..65535 in 256 buckets (SP, DP);
//   - other categorical fields (protocol, label, ...): the value
//     histograms (PR).
//
// Continuous fields (timestamp and numeric columns) score the 1-D
// Earth Mover's Distance between the samples, divided by the raw
// column's range so every field lands on the same scale.
//
// stats.JSDCounts computes the value-histogram divergence too, but
// sums its terms in map order, so its last bits vary between runs;
// the histograms are laid out in key order here instead, which keeps
// the score bit-identical for a fixed seed.
func fidelityErr(raw, syn *netdpsyn.Table) (float64, error) {
	schema := raw.Schema()
	var sum float64
	for ci, f := range schema.Fields {
		si := syn.Schema().Index(f.Name)
		if si < 0 {
			return 0, fmt.Errorf("fidelity: release lacks field %q", f.Name)
		}
		var (
			d   float64
			err error
		)
		switch f.Kind {
		case netdpsyn.KindIP:
			d, err = stats.JSD(padded(rankFreqs(raw.Column(ci)), rankFreqs(syn.Column(si))))
		case netdpsyn.KindPort:
			d, err = stats.JSD(portHistogram(raw.Column(ci)), portHistogram(syn.Column(si)))
		case netdpsyn.KindCategorical:
			d, err = stats.JSD(sortedHistograms(decodedCounts(raw, ci), decodedCounts(syn, si)))
		default: // KindNumeric, KindTimestamp
			rv, sv := floats(raw.Column(ci)), floats(syn.Column(si))
			lo, hi := slices.Min(rv), slices.Max(rv)
			if hi == lo {
				continue // a constant raw column: every release scores 0 on it
			}
			d, err = stats.EMDSamples(rv, sv)
			d /= hi - lo
		}
		if err != nil {
			return 0, fmt.Errorf("fidelity: field %s: %w", f.Name, err)
		}
		sum += d
	}
	return sum / float64(len(schema.Fields)), nil
}

// rankFreqs is a column's value frequencies in descending order.
func rankFreqs(col []int64) []float64 {
	counts := valueCounts(col)
	out := make([]float64, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	slices.Sort(out)
	slices.Reverse(out)
	return out
}

// padded zero-extends two vectors to a common length.
func padded(a, b []float64) ([]float64, []float64) {
	n := max(len(a), len(b))
	pa, pb := make([]float64, n), make([]float64, n)
	copy(pa, a)
	copy(pb, b)
	return pa, pb
}

// portHistogram buckets ports 0..65535 into 256 equal ranges.
func portHistogram(col []int64) []float64 {
	const buckets = 256
	h := make([]float64, buckets)
	for _, v := range col {
		h[min(max(v, 0), 65535)*buckets/65536]++
	}
	return h
}

func valueCounts(col []int64) map[int64]float64 {
	out := make(map[int64]float64)
	for _, v := range col {
		out[v]++
	}
	return out
}

func decodedCounts(t *netdpsyn.Table, ci int) map[string]float64 {
	out := make(map[string]float64)
	for _, v := range t.Column(ci) {
		out[t.CatValue(ci, v)]++
	}
	return out
}

// sortedHistograms lays two histograms out over the union of their
// keys, in ascending key order.
func sortedHistograms[K cmp.Ordered](p, q map[K]float64) ([]float64, []float64) {
	keys := make([]K, 0, len(p)+len(q))
	for k := range p {
		keys = append(keys, k)
	}
	for k := range q {
		if _, ok := p[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	pv := make([]float64, len(keys))
	qv := make([]float64, len(keys))
	for i, k := range keys {
		pv[i], qv[i] = p[k], q[k]
	}
	return pv, qv
}

func floats(col []int64) []float64 {
	out := make([]float64, len(col))
	for i, v := range col {
		out[i] = float64(v)
	}
	return out
}
