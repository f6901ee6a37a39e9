// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs.
//
// The repo's correctness rests on conventions the compiler cannot see:
// unsafe zero-copy casts only behind endianness+alignment guards, panics
// confined to annotated internal invariants, contexts threaded rather than
// re-minted, Close/Sync errors surfaced on write-back, and deterministic
// iteration at every serialization boundary. The five analyzers under
// internal/analysis/... machine-check those invariants on every change.
//
// The module must build offline with the Go toolchain alone, so instead of
// depending on x/tools this package provides the same Analyzer/Pass/
// Diagnostic contract plus two drivers: a standalone multichecker loader
// (Load + Run, used by `gaslint ./...`) and the `go vet -vettool=`
// unitchecker protocol (Main, used by `make lint`). Analyzers written
// against this API use only the stdlib go/ast and go/types surface, so
// they could be lifted onto the real x/tools multichecker unchanged in
// everything but the import path.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer describes one repo-invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flag names.
	Name string

	// Doc is the one-paragraph help text; its first line is the summary.
	Doc string

	// Flags holds analyzer-specific flags, registered as
	// -<name>.<flag> by the drivers.
	Flags flag.FlagSet

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an analyzer and collects its findings.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives each finding.
	report func(Diagnostic)

	// annotations caches the package's //gas: comment directives,
	// built lazily on first lookup.
	annotations map[annotationKey]string
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file. The repo's
// invariants are library-and-binary discipline; tests may panic, mint
// contexts, and discard errors freely.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Filename returns the base name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

type annotationKey struct {
	file string // filename
	line int
	kind string // e.g. "invariant"
}

// annotationRE matches a //gas:<kind> <reason> directive. The reason is
// mandatory: a suppression without a recorded why is itself a finding.
const annotationPrefix = "//gas:"

// Annotation reports whether a //gas:<kind> <reason> directive is attached
// to the statement at pos: on the same line (trailing comment) or on the
// line immediately above (leading comment). The reason string is returned;
// a directive with an empty reason does not count (the analyzers flag the
// site anyway, forcing every exemption to carry its justification).
func (p *Pass) Annotation(pos token.Pos, kind string) (reason string, ok bool) {
	if p.annotations == nil {
		p.annotations = make(map[annotationKey]string)
		for _, f := range p.Files {
			fname := p.Fset.Position(f.Package).Filename
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, annotationPrefix) {
						continue
					}
					rest := strings.TrimPrefix(text, annotationPrefix)
					k, r, _ := strings.Cut(rest, " ")
					r = strings.TrimSpace(r)
					if k == "" || r == "" {
						continue
					}
					line := p.Fset.Position(c.Pos()).Line
					p.annotations[annotationKey{fname, line, k}] = r
				}
			}
		}
	}
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if r, ok := p.annotations[annotationKey{position.Filename, line, kind}]; ok {
			return r, true
		}
	}
	return "", false
}

// RunPackage applies analyzers to one loaded package and returns the
// findings sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders findings by file, line, column, then analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
