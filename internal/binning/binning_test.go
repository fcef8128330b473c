package binning

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

func smallFlowTable(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	tab, err := datagen.Generate(datagen.TON, datagen.Config{Rows: rows, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBuildEncodeRoundTrip(t *testing.T) {
	tab := smallFlowTable(t, 1200)
	enc, err := Build(tab, DefaultConfig(), 0.05, 17)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := enc.Encode(tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := encoded.Validate(); err != nil {
		t.Fatalf("encoded invalid: %v", err)
	}
	if encoded.NumRows() != tab.NumRows() {
		t.Fatalf("rows = %d, want %d", encoded.NumRows(), tab.NumRows())
	}
	// Every raw value must encode into a bin containing (or near) it;
	// for identity-kind attributes it must be exact.
	for c, attr := range enc.Attrs {
		if attr.Field.Kind != dataset.KindCategorical {
			continue
		}
		col := tab.Column(c)
		for r, v := range col {
			b := attr.Bins[encoded.Cols[c][r]]
			if !b.Contains(v) {
				t.Fatalf("categorical %q row %d: value %d not in bin [%d,%d]",
					attr.Field.Name, r, v, b.Lo, b.Hi)
			}
		}
	}
}

func TestBuildEmptyTable(t *testing.T) {
	s := dataset.MustSchema(dataset.Field{Name: "x", Kind: dataset.KindNumeric})
	if _, err := Build(dataset.NewTable(s, 0), DefaultConfig(), 0.1, 1); err == nil {
		t.Fatal("empty table must error")
	}
}

func TestDecodeSamplesWithinBins(t *testing.T) {
	tab := smallFlowTable(t, 800)
	enc, err := Build(tab, DefaultConfig(), 0.05, 19)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := enc.Encode(tab)
	if err != nil {
		t.Fatal(err)
	}
	out, err := enc.Decode(encoded, DecodeOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != tab.NumRows() {
		t.Fatalf("decode rows = %d", out.NumRows())
	}
	// Decoded values must lie within the bin of the code they came
	// from (except reconstructed timestamps, which are untested here
	// since no tsdiff was configured: plain sampling keeps the bin).
	for c, attr := range enc.Attrs {
		col := out.ColumnByName(attr.Field.Name)
		for r, v := range col {
			b := attr.Bins[encoded.Cols[c][r]]
			if !b.Contains(v) {
				t.Fatalf("%s row %d: decoded %d outside bin [%d,%d]", attr.Field.Name, r, v, b.Lo, b.Hi)
			}
		}
	}
}

func TestDecodeConstraint(t *testing.T) {
	tab := smallFlowTable(t, 800)
	enc, err := Build(tab, DefaultConfig(), 0.05, 23)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := enc.Encode(tab)
	if err != nil {
		t.Fatal(err)
	}
	out, err := enc.Decode(encoded, DecodeOptions{
		Seed:        5,
		Constraints: []GreaterEq{{A: trace.FieldByt, B: trace.FieldPkt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	byt, pkt := out.ColumnByName(trace.FieldByt), out.ColumnByName(trace.FieldPkt)
	for i := range byt {
		if byt[i] < pkt[i] {
			t.Fatalf("row %d violates byt >= pkt: %d < %d", i, byt[i], pkt[i])
		}
	}
}

func TestPortBinsRespectLimit(t *testing.T) {
	values := []int64{22, 53, 80, 1024, 1033, 5000, 65535}
	bins := portBins(values, DefaultConfig())
	for _, b := range bins {
		if b.Hi > 65535 {
			t.Fatalf("port bin exceeds 65535: %+v", b)
		}
		if b.Lo < 1024 && b.Lo != b.Hi {
			t.Fatalf("common port binned: %+v", b)
		}
	}
	// 1024 and 1033 fall in the same width-10 bin.
	var found bool
	for _, b := range bins {
		if b.Contains(1024) && b.Contains(1033) {
			found = true
		}
	}
	if !found {
		t.Error("1024 and 1033 should share a width-10 bin")
	}
}

func TestLogBinsContiguousMonotone(t *testing.T) {
	bins := logBins([]int64{0, 5, 123, 99999, 10_000_000}, 3)
	if bins[0].Lo != 0 {
		t.Fatalf("first bin should start at 0: %+v", bins[0])
	}
	for i := 1; i < len(bins); i++ {
		if bins[i].Lo != bins[i-1].Hi+1 {
			t.Fatalf("bins not contiguous at %d: %+v then %+v", i, bins[i-1], bins[i])
		}
	}
	if last := bins[len(bins)-1]; last.Hi < 10_000_000 {
		t.Fatalf("bins must cover the max value: %+v", last)
	}
	// Log binning yields far fewer bins than linear would.
	if len(bins) > 60 {
		t.Fatalf("too many log bins: %d", len(bins))
	}
}

func TestLogBinsCoverageProperty(t *testing.T) {
	f := func(raw uint32) bool {
		v := int64(raw % 10_000_000)
		bins := logBins([]int64{v}, 3)
		// Some bin must contain v.
		for _, b := range bins {
			if b.Contains(v) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeAdjacentThreshold(t *testing.T) {
	bins := []Bin{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	noisy := []float64{100, 1, 1, 100}
	outB, outC := mergeAdjacent(bins, noisy, 50, 100)
	// The two middle low-count bins merge (possibly with a neighbour).
	if len(outB) >= 4 {
		t.Fatalf("no merging happened: %v", outB)
	}
	var total float64
	for _, c := range outC {
		total += c
	}
	if total < 200 {
		t.Errorf("counts lost in merge: %v", outC)
	}
}

func TestMergeAdjacentCap(t *testing.T) {
	var bins []Bin
	var noisy []float64
	for i := 0; i < 100; i++ {
		bins = append(bins, Bin{int64(i), int64(i)})
		noisy = append(noisy, 1000) // all above threshold
	}
	outB, _ := mergeAdjacent(bins, noisy, 1, 10)
	if len(outB) > 10 {
		t.Fatalf("cap not enforced: %d bins", len(outB))
	}
}

func TestMergeIPBinsKeepsHeavy(t *testing.T) {
	// Two heavy IPs and many light ones in the same /30s.
	var bins []Bin
	var noisy []float64
	base := int64(0x0A000000)
	for i := int64(0); i < 16; i++ {
		bins = append(bins, Bin{base + i, base + i})
		if i == 3 {
			noisy = append(noisy, 1000)
		} else {
			noisy = append(noisy, 1)
		}
	}
	outB, _ := mergeIPBins(bins, noisy, 100, 1000)
	// The heavy address must survive as a singleton.
	foundHeavy := false
	for _, b := range outB {
		if b.Lo == base+3 && b.Hi == base+3 {
			foundHeavy = true
		}
	}
	if !foundHeavy {
		t.Errorf("heavy IP lost: %v", outB)
	}
	if len(outB) >= 16 {
		t.Errorf("light IPs not grouped: %d bins", len(outB))
	}
}

func TestAttrCodeNearest(t *testing.T) {
	a := &Attr{Field: dataset.Field{Name: "x", Kind: dataset.KindNumeric},
		Bins: []Bin{{0, 9}, {10, 19}, {30, 39}}}
	a.buildLookup()
	if c := a.Code(15); c != 1 {
		t.Errorf("Code(15) = %d, want 1", c)
	}
	// Gap value 25: nearest bin with Lo <= 25 is bin 1 ([10,19]).
	if c := a.Code(25); c != 1 {
		t.Errorf("Code(25) = %d, want 1 (nearest)", c)
	}
	if c := a.Code(-5); c != 0 {
		t.Errorf("Code(-5) = %d, want 0", c)
	}
}

func TestSampleWithinBin(t *testing.T) {
	a := &Attr{Field: dataset.Field{Name: "x", Kind: dataset.KindNumeric},
		Bins: []Bin{{10, 19}}}
	a.buildLookup()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		if v := a.Sample(rng, 0); v < 10 || v > 19 {
			t.Fatalf("Sample = %d outside [10,19]", v)
		}
		if v := a.SampleGaussian(rng, 0); v < 10 || v > 19 {
			t.Fatalf("SampleGaussian = %d outside [10,19]", v)
		}
	}
}

func TestAddTSDiff(t *testing.T) {
	s := dataset.MustSchema(
		dataset.Field{Name: "srcip", Kind: dataset.KindIP},
		dataset.Field{Name: "ts", Kind: dataset.KindTimestamp},
	)
	tab := dataset.NewTable(s, 6)
	// Two groups: ip=1 at ts 10,30,60; ip=2 at ts 5,25.
	for _, row := range [][2]int64{{1, 30}, {2, 5}, {1, 10}, {1, 60}, {2, 25}} {
		tab.AppendRow([]int64{row[0], row[1]})
	}
	out, err := AddTSDiff(tab, "ts", "tsdiff", []string{"srcip"})
	if err != nil {
		t.Fatal(err)
	}
	diff := out.ColumnByName("tsdiff")
	ts := out.ColumnByName("ts")
	ip := out.ColumnByName("srcip")
	// Collect diffs per group and verify they reconstruct the gaps.
	got := map[int64][]int64{}
	for i := range diff {
		got[ip[i]] = append(got[ip[i]], diff[i])
		_ = ts
	}
	sum := func(xs []int64) int64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(got[1]) != 50 { // 30-10 + 60-30
		t.Errorf("group 1 diffs = %v, want sum 50", got[1])
	}
	if sum(got[2]) != 20 {
		t.Errorf("group 2 diffs = %v, want sum 20", got[2])
	}
}

func TestTimestampReconstruction(t *testing.T) {
	tab := smallFlowTable(t, 1000)
	aug, err := AddTSDiff(tab, trace.FieldTS, trace.FieldTSDiff,
		[]string{trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Build(aug, DefaultConfig(), 0.05, 29)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := enc.Encode(aug)
	if err != nil {
		t.Fatal(err)
	}
	out, err := enc.Decode(encoded, DecodeOptions{
		Seed:        7,
		GroupBy:     []string{trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto},
		TSField:     trace.FieldTS,
		TSDiffField: trace.FieldTSDiff,
		DropAux:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().Has(trace.FieldTSDiff) {
		t.Fatal("aux field should be dropped")
	}
	ts := out.ColumnByName(trace.FieldTS)
	for i, v := range ts {
		if v < 0 {
			t.Fatalf("negative reconstructed timestamp at %d: %d", i, v)
		}
	}
}

func TestDecodeShapeMismatch(t *testing.T) {
	tab := smallFlowTable(t, 300)
	enc, err := Build(tab, DefaultConfig(), 0.05, 31)
	if err != nil {
		t.Fatal(err)
	}
	bad := dataset.NewEncoded([]string{"x"}, []int{2}, 5)
	if _, err := enc.Decode(bad, DecodeOptions{}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

// TestBuildIPMergeDeterministic checks that the IP merge is a pure
// function of its input: light addresses that stay under the threshold
// at /30 are regrouped at wider prefixes, and the regrouped noisy sums
// must not depend on map iteration order. Repeated builds must give
// bit-identical NoisyCounts.
func TestBuildIPMergeDeterministic(t *testing.T) {
	s := dataset.MustSchema(dataset.Field{Name: "srcip", Kind: dataset.KindIP})
	tab := dataset.NewTable(s, 4096)
	base := int64(0x0A000000)
	// One address per /30 over 64 /26 blocks: finalized at /26.
	for i := int64(0); i < 1024; i++ {
		tab.AppendRow([]int64{base + 4*i})
	}
	// One address per /26 over 64 /22 blocks: finalized at /22.
	base2 := int64(0x0B000000)
	for i := int64(0); i < 1024; i++ {
		tab.AppendRow([]int64{base2 + 64*i})
	}
	build := func() *Attr {
		enc, err := Build(tab, DefaultConfig(), 0.5, 5)
		if err != nil {
			t.Fatal(err)
		}
		return &enc.Attrs[0]
	}
	first := build()
	levels := map[int64]bool{}
	for _, b := range first.Bins {
		levels[b.Width()] = true
	}
	if len(levels) < 2 {
		t.Fatalf("input finalizes bins at %d prefix level(s), want ≥ 2", len(levels))
	}
	want := first.NoisyCounts
	for rep := 0; rep < 20; rep++ {
		got := build().NoisyCounts
		if len(got) != len(want) {
			t.Fatalf("build %d: %d bins, want %d", rep, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("build %d: NoisyCounts[%d] = %v, want %v (bit-identical)", rep, i, got[i], want[i])
			}
		}
	}
}
