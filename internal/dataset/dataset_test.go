package dataset

import (
	"math"
	"testing"

	"genomeatscale/internal/core"
)

func TestProxyDescriptionsMatchPaper(t *testing.T) {
	k := Kingsford()
	if k.Samples != 2580 || k.KmerLength != 19 {
		t.Errorf("Kingsford proxy = %+v", k)
	}
	if k.Attributes != uint64(1)<<38 {
		t.Errorf("Kingsford attribute space should be 4^19")
	}
	b := BIGSI()
	if b.Samples != 446506 || b.KmerLength != 31 {
		t.Errorf("BIGSI proxy = %+v", b)
	}
	if b.Density >= k.Density {
		t.Error("BIGSI must be far sparser than Kingsford")
	}
	if b.ColumnVariability <= k.ColumnVariability {
		t.Error("BIGSI must have higher column variability")
	}
}

func TestGenerateScaledKingsford(t *testing.T) {
	ds, err := Kingsford().Generate(ScaledConfig{
		Samples:      100,
		Attributes:   200000,
		DensityScale: 10, // keep enough nonzeros at the reduced size
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 100 || ds.NumAttributes() != 200000 {
		t.Fatalf("scaled shape %d x %d", ds.NumSamples(), ds.NumAttributes())
	}
	got := density(ds)
	want := 1.5e-4 * 10
	if math.Abs(got-want)/want > 0.3 {
		t.Errorf("scaled density = %v, want ≈%v", got, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := ScaledConfig{Samples: 30, Attributes: 10000, DensityScale: 20, Seed: 7}
	a, err := BIGSI().Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BIGSI().Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < a.NumSamples(); j++ {
		sa, sb := a.Sample(j), b.Sample(j)
		if len(sa) != len(sb) {
			t.Fatalf("sample %d differs", j)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("sample %d differs at %d", j, i)
			}
		}
	}
}

func TestGenerateRejectsZeroDensity(t *testing.T) {
	p := Kingsford()
	p.Density = 0
	if _, err := p.Generate(ScaledConfig{Samples: 10, Attributes: 100}); err == nil {
		t.Error("zero density should error")
	}
}

func TestGenerateClampsDensity(t *testing.T) {
	p := Kingsford()
	ds, err := p.Generate(ScaledConfig{Samples: 5, Attributes: 50, DensityScale: 1e9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Clamped to density 1: every sample is (nearly) the full universe.
	if got := density(ds); got < 0.5 {
		t.Errorf("density should be clamped near 1, got %v", got)
	}
}

func TestTableII(t *testing.T) {
	rows := TableII()
	if len(rows) != 4 {
		t.Fatalf("Table II should have 4 rows, got %d", len(rows))
	}
	byTool := map[string]ToolComparison{}
	for _, r := range rows {
		byTool[r.Tool] = r
	}
	gas, ok := byTool["GenomeAtScale"]
	if !ok {
		t.Fatal("GenomeAtScale row missing")
	}
	if gas.ComputeNodes != 1024 || gas.Samples != 446506 || !gas.ExactJaccard {
		t.Errorf("GenomeAtScale row = %+v", gas)
	}
	mash := byTool["Mash"]
	if mash.ExactJaccard {
		t.Error("Mash uses MinHash, not exact Jaccard")
	}
	if byTool["Libra"].SimilarityKind != "Cosine" {
		t.Error("Libra similarity kind wrong")
	}
	// The headline claim of Table II: GenomeAtScale reaches the largest
	// sample count and node count.
	for _, r := range rows {
		if r.Tool != "GenomeAtScale" && r.Samples >= gas.Samples {
			t.Errorf("%s sample count should be below GenomeAtScale", r.Tool)
		}
		if r.Tool != "GenomeAtScale" && r.ComputeNodes >= gas.ComputeNodes {
			t.Errorf("%s node count should be below GenomeAtScale", r.Tool)
		}
	}
}

// density returns nnz / (m·n) of ds.
func density(ds *core.InMemoryDataset) float64 {
	var nnz int
	for j := 0; j < ds.NumSamples(); j++ {
		nnz += len(ds.Sample(j))
	}
	return float64(nnz) / (float64(ds.NumAttributes()) * float64(ds.NumSamples()))
}
