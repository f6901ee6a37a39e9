// Package docsim applies SimilarityAtScale to information retrieval
// (Section II-G of the paper): documents are modelled as sets of words or
// word shingles, and J(X, Y) — the ratio of shared to total distinct terms
// — measures document similarity, as used for plagiarism detection and text
// analysis (the paper cites text2vec). Table III maps the framing: one row
// of A per word, one column per document.
package docsim

import (
	"context"
	"fmt"
	"strings"
	"unicode"

	"genomeatscale/internal/core"
)

// Tokenize splits text into lower-cased word tokens; punctuation and digits
// act as separators.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r)
	})
}

// Shingles returns the k-word shingles (contiguous token windows joined by
// a space). For k = 1 it returns the tokens themselves. Texts shorter than
// k tokens yield nothing.
func Shingles(tokens []string, k int) []string {
	if k <= 0 {
		//gas:invariant documented contract: shingle size is app configuration validated at the flag layer; this guards direct API misuse
		panic(fmt.Sprintf("docsim: shingle size must be positive, got %d", k))
	}
	if len(tokens) < k {
		return nil
	}
	out := make([]string, 0, len(tokens)-k+1)
	for i := 0; i+k <= len(tokens); i++ {
		out = append(out, strings.Join(tokens[i:i+k], " "))
	}
	return out
}

// hashTerm maps a term to a 62-bit attribute index (FNV-1a, truncated) so
// documents become attribute sets over a fixed universe that stays well
// inside the batching arithmetic of the core pipeline.
func hashTerm(term string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(term); i++ {
		h ^= uint64(term[i])
		h *= prime
	}
	return h >> 2 // keep below 2^62
}

// Corpus is a collection of named documents prepared for similarity
// computation.
type Corpus struct {
	names []string
	terms [][]uint64
}

// Options configures corpus construction.
type Options struct {
	// ShingleSize is the number of consecutive words per term (1 = bag of
	// words).
	ShingleSize int
}

// NewCorpus tokenises and shingles the documents. Names and texts must have
// equal length.
func NewCorpus(names, texts []string, opts Options) (*Corpus, error) {
	if len(names) != len(texts) {
		return nil, fmt.Errorf("docsim: %d names for %d texts", len(names), len(texts))
	}
	k := opts.ShingleSize
	if k <= 0 {
		k = 1
	}
	c := &Corpus{}
	for i, text := range texts {
		shingles := Shingles(Tokenize(text), k)
		terms := make([]uint64, 0, len(shingles))
		for _, s := range shingles {
			terms = append(terms, hashTerm(s))
		}
		c.names = append(c.names, names[i])
		c.terms = append(c.terms, terms)
	}
	return c, nil
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.names) }

// Dataset converts the corpus into SimilarityAtScale input.
func (c *Corpus) Dataset() (*core.InMemoryDataset, error) {
	return core.NewInMemoryDataset(c.names, c.terms, uint64(1)<<62)
}

// Similarity computes the all-pairs document Jaccard similarity matrix.
func (c *Corpus) Similarity(opts core.Options) (*core.Result, error) {
	ds, err := c.Dataset()
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	return e.Similarity(context.Background(), ds)
}

// MostSimilar returns, for document index i, the index of the most similar
// other document and its similarity (plagiarism-detection style lookup).
func MostSimilar(res *core.Result, i int) (int, float64) {
	best, bestSim := -1, -1.0
	for j := 0; j < res.N; j++ {
		if j == i {
			continue
		}
		if s := res.Similarity(i, j); s > bestSim {
			best, bestSim = j, s
		}
	}
	return best, bestSim
}
