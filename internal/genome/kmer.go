package genome

import "fmt"

// MaxK is the largest k supported by the 2-bit packed encoding (31 bases
// fit in 62 bits). The paper uses k = 19 for the Kingsford dataset and
// k = 31 for BIGSI; both fit.
const MaxK = 31

// baseCode maps a nucleotide to its 2-bit code, or -1 for characters that
// cannot be encoded (such as the unknown base N), which break a k-mer
// window exactly as in standard k-mer counters.
func baseCode(b byte) int {
	switch b {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't':
		return 3
	default:
		return -1
	}
}

// complementCode returns the 2-bit code of the complementary base.
func complementCode(code uint64) uint64 { return 3 - code }

// ReverseComplementCode returns the packed code of the reverse complement
// of a packed k-mer.
func ReverseComplementCode(code uint64, k int) uint64 {
	var out uint64
	for i := 0; i < k; i++ {
		out = out<<2 | complementCode(code&3)
		code >>= 2
	}
	return out
}

// CanonicalCode returns the lexicographically smaller of a k-mer code and
// its reverse complement. Using canonical k-mers makes the representation
// strand-independent; the paper chooses k = 19 (odd) for Kingsford
// precisely "to avoid the possibility of k-mers being equal to their
// reverse complements".
func CanonicalCode(code uint64, k int) uint64 {
	rc := ReverseComplementCode(code, k)
	if rc < code {
		return rc
	}
	return code
}

// ExtractorOptions configures k-mer extraction.
type ExtractorOptions struct {
	// K is the k-mer length in [1, MaxK].
	K int
	// Canonical selects canonical (strand-independent) k-mers.
	Canonical bool
}

// Validate checks extraction options.
func (o ExtractorOptions) Validate() error {
	if o.K <= 0 || o.K > MaxK {
		return fmt.Errorf("genome: k must be in [1,%d], got %d", MaxK, o.K)
	}
	return nil
}

// ExtractKmers returns the packed codes of all k-mers in seq using a
// rolling 2-bit encoder. Windows containing an invalid base (e.g. N) are
// skipped, and the window restarts after the invalid position.
func ExtractKmers(seq []byte, opts ExtractorOptions) ([]uint64, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	k := opts.K
	if len(seq) < k {
		return nil, nil
	}
	mask := uint64(1)<<(2*uint(k)) - 1
	if k == 32 {
		mask = ^uint64(0)
	}
	var out []uint64
	var code uint64
	valid := 0
	for _, b := range seq {
		c := baseCode(b)
		if c < 0 {
			valid = 0
			code = 0
			continue
		}
		code = (code<<2 | uint64(c)) & mask
		valid++
		if valid >= k {
			km := code
			if opts.Canonical {
				km = CanonicalCode(km, k)
			}
			out = append(out, km)
		}
	}
	return out, nil
}

// CountKmers tallies the multiplicity of each k-mer in the given sequences.
func CountKmers(seqs [][]byte, opts ExtractorOptions) (map[uint64]int, error) {
	counts := make(map[uint64]int)
	for _, seq := range seqs {
		kmers, err := ExtractKmers(seq, opts)
		if err != nil {
			return nil, err
		}
		for _, km := range kmers {
			counts[km]++
		}
	}
	return counts, nil
}

// FilterCounts keeps only k-mers whose count is at least minCount. This is
// the noise-removal step of the paper's preprocessing: "raw sequences were
// preprocessed to remove rare (considered noise) k-mers" with thresholds
// set per sample.
func FilterCounts(counts map[uint64]int, minCount int) []uint64 {
	out := make([]uint64, 0, len(counts))
	for km, c := range counts {
		if c >= minCount {
			out = append(out, km)
		}
	}
	return out
}

// KmerSpace returns m = 4^k, the number of possible k-mers and hence the
// number of rows of the indicator matrix.
func KmerSpace(k int) uint64 {
	if k <= 0 || k > MaxK {
		//gas:invariant k is validated against [1,MaxK] at the flag/profile layer before any k-mer math; this guards direct API misuse
		panic(fmt.Sprintf("genome: k must be in [1,%d], got %d", MaxK, k))
	}
	return uint64(1) << (2 * uint(k))
}
