package genome

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"genomeatscale/internal/core"
	"genomeatscale/internal/synth"
)

func TestReadFASTABasic(t *testing.T) {
	in := ">seq1 first sequence\nACGT\nacgt\n\n>seq2\nTTTT\n"
	recs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ID != "seq1" || recs[0].Description != "first sequence" {
		t.Errorf("record 0 header parsed as %q / %q", recs[0].ID, recs[0].Description)
	}
	if string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("record 0 seq = %q", recs[0].Seq)
	}
	if recs[1].ID != "seq2" || recs[1].Description != "" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("record 1 = %+v", recs[1])
	}
}

func TestReadFASTAErrors(t *testing.T) {
	cases := []string{
		"ACGT\n",             // data before header
		">\nACGT\n",          // empty header
		">seq1\n>seq2\nAC\n", // empty record
		">last\n",            // empty final record
	}
	for i, in := range cases {
		if _, err := ReadFASTA(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestWriteReadRoundTripAndFiles(t *testing.T) {
	records := []Record{
		{ID: "a", Description: "desc", Seq: []byte("ACGTACGTACGTACGTACGTACGT")},
		{ID: "b", Seq: []byte("GGG")},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, records, 10); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].ID != "a" || string(back[0].Seq) != string(records[0].Seq) {
		t.Errorf("round trip mismatch: %+v", back)
	}
	// File round trip.
	path := filepath.Join(t.TempDir(), "test.fasta")
	if err := WriteFASTAFile(path, records, 0); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadFASTAFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back2) != 2 || string(back2[1].Seq) != "GGG" {
		t.Errorf("file round trip mismatch")
	}
	if _, err := ReadFASTAFile(filepath.Join(t.TempDir(), "missing.fasta")); err == nil {
		t.Error("missing file should error")
	}
	if err := WriteFASTA(&bytes.Buffer{}, []Record{{Seq: []byte("A")}}, 0); err == nil {
		t.Error("empty ID should error")
	}
}

func TestEncodeDecodeKmer(t *testing.T) {
	code, err := EncodeKmer([]byte("ACGT"))
	if err != nil {
		t.Fatal(err)
	}
	// A=00 C=01 G=10 T=11 → 0b00011011 = 27
	if code != 27 {
		t.Errorf("EncodeKmer(ACGT) = %d, want 27", code)
	}
	if string(DecodeKmer(code, 4)) != "ACGT" {
		t.Errorf("DecodeKmer round trip failed")
	}
	if _, err := EncodeKmer([]byte("ACGN")); err == nil {
		t.Error("invalid base should error")
	}
	if _, err := EncodeKmer(nil); err == nil {
		t.Error("empty k-mer should error")
	}
	if _, err := EncodeKmer(bytes.Repeat([]byte("A"), 32)); err == nil {
		t.Error("k > MaxK should error")
	}
}

// basesFromRaw deterministically maps arbitrary fuzz bytes to a k-length
// nucleotide sequence.
func basesFromRaw(raw []byte, k int) []byte {
	seq := make([]byte, k)
	for i := range seq {
		var b byte
		if len(raw) > 0 {
			b = raw[i%len(raw)]
		}
		seq[i] = bases[int(b+byte(i))%4]
	}
	return seq
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(raw []byte, kRaw uint8) bool {
		k := int(kRaw%MaxK) + 1
		seq := basesFromRaw(raw, k)
		code, err := EncodeKmer(seq)
		if err != nil {
			return false
		}
		return string(DecodeKmer(code, k)) == string(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReverseComplement(t *testing.T) {
	if string(ReverseComplement([]byte("ACGT"))) != "ACGT" {
		t.Error("ACGT is its own reverse complement")
	}
	if string(ReverseComplement([]byte("AACG"))) != "CGTT" {
		t.Error("ReverseComplement(AACG) wrong")
	}
	if string(ReverseComplement([]byte("ANT"))) != "ANT" {
		t.Error("N should map to N")
	}
}

func TestReverseComplementCodeMatchesStringVersion(t *testing.T) {
	f := func(raw []byte, kRaw uint8) bool {
		k := int(kRaw%MaxK) + 1
		seq := basesFromRaw(raw, k)
		code, _ := EncodeKmer(seq)
		rcSeq := ReverseComplement(seq)
		rcCode, _ := EncodeKmer(rcSeq)
		return ReverseComplementCode(code, k) == rcCode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalCodeStrandIndependent(t *testing.T) {
	seq := []byte("ACCGTTGAC")
	code, _ := EncodeKmer(seq)
	rcCode, _ := EncodeKmer(ReverseComplement(seq))
	if CanonicalCode(code, len(seq)) != CanonicalCode(rcCode, len(seq)) {
		t.Error("canonical codes of a k-mer and its reverse complement must match")
	}
}

func TestExtractKmersPaperExample(t *testing.T) {
	// The paper: "in a sequence AATGTC, there are four 3-mers (AAT, ATG,
	// TGT, GTC)".
	kmers, err := ExtractKmers([]byte("AATGTC"), ExtractorOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"AAT", "ATG", "TGT", "GTC"}
	if len(kmers) != len(want) {
		t.Fatalf("got %d k-mers, want %d", len(kmers), len(want))
	}
	for i, w := range want {
		if string(DecodeKmer(kmers[i], 3)) != w {
			t.Errorf("k-mer %d = %s, want %s", i, DecodeKmer(kmers[i], 3), w)
		}
	}
	// And three 4-mers.
	four, _ := ExtractKmers([]byte("AATGTC"), ExtractorOptions{K: 4})
	if len(four) != 3 {
		t.Errorf("4-mers = %d, want 3", len(four))
	}
}

func TestExtractKmersSkipsInvalidWindows(t *testing.T) {
	kmers, err := ExtractKmers([]byte("ACGTNACGT"), ExtractorOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Windows: ACG CGT (then N breaks) ACG CGT → 4 k-mers, none containing N.
	if len(kmers) != 4 {
		t.Errorf("got %d k-mers, want 4", len(kmers))
	}
	short, _ := ExtractKmers([]byte("AC"), ExtractorOptions{K: 3})
	if short != nil {
		t.Error("sequence shorter than k should yield nil")
	}
	if _, err := ExtractKmers([]byte("ACGT"), ExtractorOptions{K: 0}); err == nil {
		t.Error("invalid k should error")
	}
}

func TestExtractKmersCanonicalInvariantUnderRC(t *testing.T) {
	seq := []byte("ACCGTAGGCTTACGATCG")
	opts := ExtractorOptions{K: 5, Canonical: true}
	a, _ := ExtractKmers(seq, opts)
	b, _ := ExtractKmers(ReverseComplement(seq), opts)
	setA := map[uint64]bool{}
	setB := map[uint64]bool{}
	for _, x := range a {
		setA[x] = true
	}
	for _, x := range b {
		setB[x] = true
	}
	if len(setA) != len(setB) {
		t.Fatal("canonical k-mer sets differ in size under reverse complement")
	}
	for x := range setA {
		if !setB[x] {
			t.Fatal("canonical k-mer sets differ under reverse complement")
		}
	}
}

func TestCountAndFilterKmers(t *testing.T) {
	counts, err := CountKmers([][]byte{[]byte("AAAA"), []byte("AAAT")}, ExtractorOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	aaa, _ := EncodeKmer([]byte("AAA"))
	aat, _ := EncodeKmer([]byte("AAT"))
	if counts[aaa] != 3 { // AAAA has 2, AAAT has 1
		t.Errorf("count(AAA) = %d, want 3", counts[aaa])
	}
	if counts[aat] != 1 {
		t.Errorf("count(AAT) = %d, want 1", counts[aat])
	}
	kept := FilterCounts(counts, 2)
	if len(kept) != 1 || kept[0] != aaa {
		t.Errorf("FilterCounts = %v", kept)
	}
	if _, err := CountKmers([][]byte{[]byte("AAAA")}, ExtractorOptions{K: 0}); err == nil {
		t.Error("invalid options should error")
	}
}

func TestKmerSpace(t *testing.T) {
	if KmerSpace(3) != 64 {
		t.Error("KmerSpace(3) wrong")
	}
	if KmerSpace(31) != uint64(1)<<62 {
		t.Error("KmerSpace(31) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	KmerSpace(0)
}

func TestBuildSampleAndDataset(t *testing.T) {
	opts := SampleOptions{ExtractorOptions: ExtractorOptions{K: 4, Canonical: true}, MinCount: 1}
	s1, err := BuildSample("s1", [][]byte{[]byte("ACGTACGTACGT")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BuildSample("s2", [][]byte{[]byte("ACGTACGTACGA")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cardinality() == 0 || s2.Cardinality() == 0 {
		t.Fatal("samples should not be empty")
	}
	j, err := s1.Jaccard(s2)
	if err != nil {
		t.Fatal(err)
	}
	if j <= 0 || j > 1 {
		t.Errorf("Jaccard = %v", j)
	}
	selfJ, _ := s1.Jaccard(s1)
	if selfJ != 1 {
		t.Errorf("self Jaccard = %v", selfJ)
	}
	ds, err := BuildDataset([]Sample{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 2 || ds.NumAttributes() != KmerSpace(4) {
		t.Errorf("dataset shape wrong")
	}
	if ds.SampleName(0) != "s1" {
		t.Errorf("name = %q", ds.SampleName(0))
	}
}

func TestBuildSampleMinCount(t *testing.T) {
	opts := SampleOptions{ExtractorOptions: ExtractorOptions{K: 3}, MinCount: 2}
	s, err := BuildSample("s", [][]byte{[]byte("AAAA"), []byte("CCCT")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	aaa, _ := EncodeKmer([]byte("AAA"))
	if s.Cardinality() != 1 || s.Kmers[0] != aaa {
		t.Errorf("MinCount filter failed: %v", s.Kmers)
	}
}

func TestBuildSampleErrors(t *testing.T) {
	if _, err := BuildSample("x", nil, SampleOptions{ExtractorOptions: ExtractorOptions{K: 0}}); err == nil {
		t.Error("invalid k should error")
	}
	s1 := Sample{Name: "a", K: 3}
	s2 := Sample{Name: "b", K: 5}
	if _, err := s1.Jaccard(s2); err == nil {
		t.Error("mismatched k should error")
	}
	if _, err := BuildDataset(nil); err == nil {
		t.Error("empty dataset should error")
	}
	if _, err := BuildDataset([]Sample{s1, s2}); err == nil {
		t.Error("mixed k should error")
	}
}

func TestBuildSampleFromRecords(t *testing.T) {
	records := []Record{{ID: "r1", Seq: []byte("ACGTACGT")}, {ID: "r2", Seq: []byte("TTTTACGT")}}
	s, err := BuildSampleFromRecords("combined", records, SampleOptions{ExtractorOptions: ExtractorOptions{K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "combined" || s.Cardinality() == 0 {
		t.Errorf("sample = %+v", s)
	}
}

func TestRandomSequenceAndMutate(t *testing.T) {
	rng := synth.NewRNG(1)
	seq := RandomSequence(rng, 500)
	if len(seq) != 500 {
		t.Fatal("wrong length")
	}
	for _, b := range seq {
		if baseCode(b) < 0 {
			t.Fatal("invalid base in random sequence")
		}
	}
	identical, err := Mutate(rng, seq, MutationModel{})
	if err != nil {
		t.Fatal(err)
	}
	if string(identical) != string(seq) {
		t.Error("zero-rate mutation must be identity")
	}
	mutated, err := Mutate(rng, seq, MutationModel{SubstitutionRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if string(mutated) == string(seq) {
		t.Error("substitutions expected")
	}
	if len(mutated) != len(seq) {
		t.Error("substitution-only mutation must preserve length")
	}
	indel, err := Mutate(rng, seq, MutationModel{InsertionRate: 0.2, DeletionRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(indel) == len(seq) {
		t.Log("indel mutation happened to preserve length (unlikely but allowed)")
	}
	if _, err := Mutate(rng, seq, MutationModel{SubstitutionRate: 2}); err == nil {
		t.Error("invalid rate should error")
	}
}

func TestRandomSequenceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RandomSequence(synth.NewRNG(1), -1)
}

func TestGenerateFamilyDivergenceGradient(t *testing.T) {
	cfg := FamilyConfig{
		AncestorLength: 3000,
		Descendants:    4,
		Model:          MutationModel{SubstitutionRate: 0.02},
		Seed:           7,
	}
	samples, err := GenerateSampleFamily(cfg, SampleOptions{ExtractorOptions: ExtractorOptions{K: 11, Canonical: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("got %d samples", len(samples))
	}
	// Later descendants should be less similar to the ancestor.
	prev := 1.1
	for d := 1; d < len(samples); d++ {
		j, err := samples[0].Jaccard(samples[d])
		if err != nil {
			t.Fatal(err)
		}
		if j >= prev {
			t.Errorf("descendant %d similarity %v not below previous %v", d, j, prev)
		}
		if j <= 0 {
			t.Errorf("descendant %d should still share k-mers with ancestor", d)
		}
		prev = j
	}
}

func TestGenerateFamilyErrors(t *testing.T) {
	if _, err := GenerateFamily(FamilyConfig{AncestorLength: 0}); err == nil {
		t.Error("zero length should error")
	}
	if _, err := GenerateFamily(FamilyConfig{AncestorLength: 10, Descendants: -1}); err == nil {
		t.Error("negative descendants should error")
	}
	if _, err := GenerateFamily(FamilyConfig{AncestorLength: 10, Model: MutationModel{DeletionRate: 2}}); err == nil {
		t.Error("bad model should error")
	}
	if _, err := GenerateSampleFamily(FamilyConfig{AncestorLength: 0}, SampleOptions{}); err == nil {
		t.Error("propagated error expected")
	}
	if _, err := GenerateSampleFamily(FamilyConfig{AncestorLength: 100}, SampleOptions{ExtractorOptions: ExtractorOptions{K: 0}}); err == nil {
		t.Error("bad sample options should error")
	}
}

// EncodeKmer packs a k-length sequence into a 2-bit-per-base code. It
// returns an error for invalid bases or unsupported k.
func EncodeKmer(seq []byte) (uint64, error) {
	k := len(seq)
	if k == 0 || k > MaxK {
		return 0, fmt.Errorf("genome: k must be in [1,%d], got %d", MaxK, k)
	}
	var code uint64
	for _, b := range seq {
		c := baseCode(b)
		if c < 0 {
			return 0, fmt.Errorf("genome: invalid base %q", string(b))
		}
		code = code<<2 | uint64(c)
	}
	return code, nil
}

// DecodeKmer expands a 2-bit packed code back into a k-length sequence.
func DecodeKmer(code uint64, k int) []byte {
	out := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		switch code & 3 {
		case 0:
			out[i] = 'A'
		case 1:
			out[i] = 'C'
		case 2:
			out[i] = 'G'
		case 3:
			out[i] = 'T'
		}
		code >>= 2
	}
	return out
}

// ReverseComplement returns the reverse-complement of a raw sequence;
// unknown bases map to 'N'.
func ReverseComplement(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		var c byte
		switch b {
		case 'A', 'a':
			c = 'T'
		case 'C', 'c':
			c = 'G'
		case 'G', 'g':
			c = 'C'
		case 'T', 't':
			c = 'A'
		default:
			c = 'N'
		}
		out[len(seq)-1-i] = c
	}
	return out
}

// Jaccard returns the exact Jaccard similarity of two samples built with
// the same k.
func (s Sample) Jaccard(other Sample) (float64, error) {
	if s.K != other.K {
		return 0, fmt.Errorf("genome: cannot compare samples with k=%d and k=%d", s.K, other.K)
	}
	return core.JaccardPair(s.Kmers, other.Kmers), nil
}
