package figures

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "bb") || !strings.Contains(s, "1") {
		t.Errorf("rendered table missing content:\n%s", s)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if seconds(1.5) != "1.5 s" {
		t.Errorf("seconds = %q", seconds(1.5))
	}
	if hours(7200) != "2 h" {
		t.Errorf("hours = %q", hours(7200))
	}
	if days(86400*3) != "3 d" {
		t.Errorf("days = %q", days(86400*3))
	}
	if mb(1<<21) != "2 MiB" {
		t.Errorf("mb = %q", mb(1<<21))
	}
	if itoa(42) != "42" {
		t.Errorf("itoa = %q", itoa(42))
	}
}

func TestTable2HasGenomeAtScaleAtLargestScale(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table II rows = %d", len(tab.Rows))
	}
	var gasSamples, maxOther int
	for _, row := range tab.Rows {
		n, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad sample count %q", row[2])
		}
		if row[0] == "GenomeAtScale" {
			gasSamples = n
		} else if n > maxOther {
			maxOther = n
		}
	}
	if gasSamples <= maxOther {
		t.Errorf("GenomeAtScale should have the largest sample count (%d vs %d)", gasSamples, maxOther)
	}
}

// parseLeadingFloat extracts the numeric prefix of a cell like "2.3 s".
func parseLeadingFloat(t *testing.T, cell string) float64 {
	t.Helper()
	fields := strings.Fields(cell)
	if len(fields) == 0 {
		t.Fatalf("empty cell")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", cell, err)
	}
	return v
}

func TestFig2aShape(t *testing.T) {
	tables, err := Fig2aKingsfordStrongScaling(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("expected projection + measurement, got %d tables", len(tables))
	}
	proj := tables[0]
	if len(proj.Rows) != 9 {
		t.Fatalf("projection should cover 9 node counts, got %d", len(proj.Rows))
	}
	// Paper shape: an interior sweet spot — the best projected total is not
	// at 1 node and not at the largest node count.
	best := 0
	for i := range proj.Rows {
		if parseLeadingFloat(t, proj.Rows[i][5]) < parseLeadingFloat(t, proj.Rows[best][5]) {
			best = i
		}
	}
	if best == 0 || best == len(proj.Rows)-1 {
		t.Errorf("sweet spot at row %d, expected interior optimum", best)
	}
	meas := tables[1]
	if len(meas.Rows) != 4 {
		t.Fatalf("measured rows = %d", len(meas.Rows))
	}
	// Communication volume grows with rank count in the measured runs.
	first := parseLeadingFloat(t, meas.Rows[0][5])
	last := parseLeadingFloat(t, meas.Rows[len(meas.Rows)-1][5])
	if last < first {
		t.Errorf("multi-rank runs should communicate at least as much as single-rank (%v vs %v)", last, first)
	}
}

// TestMeasuredRunOneRankRow: a one-rank run is a single process with no BSP
// runtime (Stats.Comm is nil); its row reports 0 bytes in 0 supersteps
// instead of dereferencing the missing statistics.
func TestMeasuredRunOneRankRow(t *testing.T) {
	ds, err := kingsfordProxy(Small)
	if err != nil {
		t.Fatal(err)
	}
	row, res, err := measuredRun(ds, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Comm != nil {
		t.Fatal("one-rank run started a BSP runtime")
	}
	if len(row) != len(measuredHeader) {
		t.Fatalf("row has %d cells, header %d", len(row), len(measuredHeader))
	}
	if parseLeadingFloat(t, row[5]) != 0 || row[6] != "0" {
		t.Errorf("one-rank row reports comm %q in %q supersteps, want 0 and 0", row[5], row[6])
	}
	multi, _, err := measuredRun(ds, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if parseLeadingFloat(t, multi[5]) <= 0 || multi[6] == "0" {
		t.Errorf("four-rank row reports no communication: %v", multi)
	}
}

func TestFig2bShape(t *testing.T) {
	tables, err := Fig2bBIGSIStrongScaling(Small)
	if err != nil {
		t.Fatal(err)
	}
	proj := tables[0]
	// Projected total time decreases monotonically from 128 to 1024 nodes.
	for i := 1; i < len(proj.Rows); i++ {
		if parseLeadingFloat(t, proj.Rows[i][5]) >= parseLeadingFloat(t, proj.Rows[i-1][5]) {
			t.Errorf("BIGSI projected total should decrease with node count (row %d)", i)
		}
	}
}

func TestFig2cShape(t *testing.T) {
	tables, err := Fig2cBatchSensitivityKingsford(Small)
	if err != nil {
		t.Fatal(err)
	}
	proj := tables[0]
	// Larger batches (fewer batch counts, later rows) reduce the projected
	// total time.
	for i := 1; i < len(proj.Rows); i++ {
		if parseLeadingFloat(t, proj.Rows[i][5]) >= parseLeadingFloat(t, proj.Rows[i-1][5]) {
			t.Errorf("total should decrease with larger batches (row %d)", i)
		}
	}
	meas := tables[1]
	if len(meas.Rows) != 5 {
		t.Fatalf("measured rows = %d", len(meas.Rows))
	}
}

func TestFig3Shape(t *testing.T) {
	tables, err := Fig3SparsitySweep(Small)
	if err != nil {
		t.Fatal(err)
	}
	proj := tables[0]
	for i := 1; i < len(proj.Rows); i++ {
		if parseLeadingFloat(t, proj.Rows[i][2]) <= parseLeadingFloat(t, proj.Rows[i-1][2]) {
			t.Errorf("denser data should take longer (projection row %d)", i)
		}
	}
	meas := tables[1]
	// Measured communication volume must also grow with density.
	firstComm := parseLeadingFloat(t, meas.Rows[0][6])
	lastComm := parseLeadingFloat(t, meas.Rows[len(meas.Rows)-1][6])
	if lastComm <= firstComm {
		t.Errorf("denser data should move more bytes (%v vs %v)", lastComm, firstComm)
	}
}

func TestMCDRAMAblationSmallSlowdown(t *testing.T) {
	tab := MCDRAMAblation()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		slowdown := strings.TrimSuffix(row[3], "%")
		v, err := strconv.ParseFloat(slowdown, 64)
		if err != nil {
			t.Fatalf("bad slowdown %q", row[3])
		}
		if v <= 0 || v > 10 {
			t.Errorf("MCDRAM slowdown should be small and positive, got %v%%", v)
		}
	}
}

func TestAccuracyExactVsMinHash(t *testing.T) {
	tab, err := AccuracyExactVsMinHash(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		target, _ := strconv.ParseFloat(row[0], 64)
		exact, _ := strconv.ParseFloat(row[1], 64)
		if diff := exact - target; diff > 0.02 || diff < -0.02 {
			t.Errorf("pipeline exact value %v far from constructed target %v", exact, target)
		}
	}
}

func TestAblationBitmaskResultsIdentical(t *testing.T) {
	tab, err := AblationBitmask(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Errorf("mask width %s changed the result", row[0])
		}
	}
	// Wider masks must not communicate more than the b=1 (uncompressed)
	// configuration.
	uncompressed := parseLeadingFloat(t, tab.Rows[0][2])
	packed := parseLeadingFloat(t, tab.Rows[3][2])
	if packed > uncompressed {
		t.Errorf("b=64 should not move more data than b=1 (%v vs %v)", packed, uncompressed)
	}
}

func TestAblationReplication(t *testing.T) {
	tab, err := AblationReplication(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestCompressionStats(t *testing.T) {
	tab, err := CompressionStats(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// The hypersparsity claim: only a small fraction of batch rows are
		// non-empty (well under half for the Kingsford-like density).
		kept, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("bad kept fraction %q", row[3])
		}
		if kept <= 0 || kept >= 50 {
			t.Errorf("kept fraction %v%% not in the hypersparse regime", kept)
		}
		// Packing never needs more than one word per nonzero.
		wordsPerNNZ := parseLeadingFloat(t, row[6])
		if wordsPerNNZ > 1 {
			t.Errorf("packing should not exceed one word per nonzero, got %v", wordsPerNNZ)
		}
		// And the word-row metadata shrinks versus the unfiltered layout.
		reduction, err := strconv.ParseFloat(strings.TrimSuffix(row[7], "×"), 64)
		if err != nil {
			t.Fatalf("bad reduction %q", row[7])
		}
		if reduction <= 1 {
			t.Errorf("filtering should reduce word-row metadata, got %v×", reduction)
		}
	}
}
