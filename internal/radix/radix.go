// Package radix is a stable least-significant-digit radix sort on
// uint64 keys that carries a payload slice along. It serves the hot
// sorts whose keys are floats: GUM's deficit cells ordered by gap and
// the decision tree's one-time per-feature presort. Byte passes on
// which every key agrees are skipped, so keys that differ only in a
// few bytes (small integer-valued floats, say) cost a few passes.
package radix

import "math"

// Float64Key maps v to a key whose unsigned order is v's numeric
// order: sign-flipped bits for v ≥ 0, all bits flipped for v < 0.
// −0 sorts just before +0 and NaNs sort past ±Inf; callers that need
// comparison semantics for those must not rely on the key.
func Float64Key(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Sort stably reorders keys ascending and applies the same
// permutation to vals, so equal keys keep their input order. kbuf and
// vbuf are scratch space of at least len(keys); Sort allocates
// nothing. It panics if vals is shorter than keys.
func Sort[T any](keys []uint64, vals []T, kbuf []uint64, vbuf []T) {
	n := len(keys)
	if n < 2 {
		return
	}
	vals = vals[:n]
	kbuf, vbuf = kbuf[:n], vbuf[:n]
	var counts [8][256]uint32
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	srcK, srcV, dstK, dstV := keys, vals, kbuf, vbuf
	for b := range counts {
		c := &counts[b]
		shift := 8 * uint(b)
		if int(c[byte(srcK[0]>>shift)]) == n {
			continue // every key has this byte
		}
		off := uint32(0)
		for i, m := range c {
			c[i] = off
			off += m
		}
		sv := srcV[:len(srcK)]
		for i, k := range srcK {
			d := byte(k >> shift)
			j := c[d]
			c[d] = j + 1
			dstK[j], dstV[j] = k, sv[i]
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}
