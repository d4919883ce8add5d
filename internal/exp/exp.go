// Package exp regenerates every table and figure of the paper's evaluation
// (§4): Tables 1–8 and Figures 4–6, plus the §4.4 sensitivity sweeps and the
// §5 data-side future-work ablation.
//
// Each experiment is a declarative Spec — the Axes blocks that enumerate its
// simulation cell set plus a row formatter — so the whole cell set is known
// up front and prefetches in parallel through sim.Batch. A Runner memoizes
// simulations so tables sharing configurations (most of them) do not
// re-simulate; it is safe for concurrent use and coalesces duplicate
// in-flight work. Because every simulation seeds its own RNG, a parallel
// regeneration renders byte-identical output to a serial one.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"itlbcfr/internal/sim"
)

// Specs returns every table/figure declaration in presentation order.
func Specs() []Spec {
	return []Spec{
		Table1Spec(),
		Table2Spec(), Table3Spec(), Table4Spec(), Table5Spec(),
		Table6Spec(), Table7Spec(), Table8Spec(),
		Figure4Spec(), Figure5Spec(), Figure6Spec(),
		PageSizeSweepSpec(), IL1SweepSpec(), DataCFRSweepSpec(), ContextSwitchSweepSpec(),
		TechSweepSpec(),
	}
}

// Cells enumerates the union of every spec's simulation cells (duplicates
// included; the Runner dedupes by configuration).
func Cells(specs []Spec) []sim.Options {
	per := make([][]sim.Options, len(specs))
	n := 0
	for i, s := range specs {
		per[i] = s.Cells()
		n += len(per[i])
	}
	// One exact allocation: a regeneration's cells are ~200 KB, and growing
	// the slice by appends would allocate and copy several times that.
	out := make([]sim.Options, 0, n)
	for _, c := range per {
		out = append(out, c...)
	}
	return out
}

// All regenerates every table and figure. The union of every spec's cells
// is prefetched first, so simulations from different tables run in parallel
// (bounded by r.Workers) before any formatting happens.
func All(ctx context.Context, r *Runner) ([]Table, error) {
	specs := Specs()
	if err := r.Prefetch(ctx, Cells(specs)); err != nil {
		return nil, err
	}
	tables := make([]Table, 0, len(specs))
	for _, s := range specs {
		t, err := s.Generate(ctx, r)
		if err != nil {
			return tables, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// specAliases maps ByID identifiers to a spec constructor. Several aliases
// may name the same spec.
var specAliases = map[string]func() Spec{
	"1": Table1Spec, "table1": Table1Spec,
	"2": Table2Spec, "table2": Table2Spec,
	"3": Table3Spec, "table3": Table3Spec,
	"4": Table4Spec, "table4": Table4Spec,
	"5": Table5Spec, "table5": Table5Spec,
	"6": Table6Spec, "table6": Table6Spec,
	"7": Table7Spec, "table7": Table7Spec,
	"8": Table8Spec, "table8": Table8Spec,
	"f4": Figure4Spec, "figure4": Figure4Spec,
	"f5": Figure5Spec, "figure5": Figure5Spec,
	"f6": Figure6Spec, "figure6": Figure6Spec,
	"sweep-page": PageSizeSweepSpec, "page": PageSizeSweepSpec,
	"sweep-il1": IL1SweepSpec, "il1": IL1SweepSpec,
	"sweep-dcfr": DataCFRSweepSpec, "dcfr": DataCFRSweepSpec,
	"sweep-cswitch": ContextSwitchSweepSpec, "cswitch": ContextSwitchSweepSpec,
	"sweep-tech": TechSweepSpec, "tech": TechSweepSpec,
}

// SpecByID resolves a table/figure identifier ("2", "figure4",
// "sweep-page", ...) to its declaration.
func SpecByID(id string) (Spec, error) {
	ctor, ok := specAliases[strings.ToLower(strings.TrimSpace(id))]
	if !ok {
		return Spec{}, fmt.Errorf("exp: unknown table/figure %q", id)
	}
	return ctor(), nil
}

// ByID regenerates a single table/figure by its identifier.
func ByID(ctx context.Context, r *Runner, id string) (Table, error) {
	s, err := SpecByID(id)
	if err != nil {
		return Table{}, err
	}
	return s.Generate(ctx, r)
}

// IDs lists the valid ByID identifiers.
func IDs() []string {
	ids := []string{"1", "2", "3", "4", "5", "6", "7", "8",
		"figure4", "figure5", "figure6", "sweep-page", "sweep-il1", "sweep-dcfr", "sweep-cswitch",
		"sweep-tech"}
	sort.Strings(ids)
	return ids
}
