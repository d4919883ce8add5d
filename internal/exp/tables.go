package exp

import (
	"fmt"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

// Table1Spec declares the default machine configuration table. It is
// static: no simulations, the rows read the Table 1 pipeline directly.
func Table1Spec() Spec {
	return Spec{
		ID:      "Table 1",
		Title:   "Default configuration parameters",
		Columns: []string{"Parameter", "Value"},
		Rows: func(*Runner) [][]string {
			p := sim.DefaultPipeline()
			return [][]string{
				{"RUU Size", fmt.Sprintf("%d instructions", p.RUUSize)},
				{"LSQ Size", fmt.Sprintf("%d instructions", p.LSQSize)},
				{"Fetch Width", fmt.Sprintf("%d instructions/cycle", p.FetchWidth)},
				{"Issue Width", fmt.Sprintf("%d instructions/cycle (out-of-order)", p.IssueWidth)},
				{"Commit Width", fmt.Sprintf("%d instructions/cycle (in-order)", p.CommitWidth)},
				{"iL1", fmt.Sprintf("%dKB, %d-way, %dB blocks, %d cycle latency",
					p.IL1.SizeBytes>>10, p.IL1.Assoc, p.IL1.BlockBytes, p.IL1.LatencyCycles)},
				{"dL1", fmt.Sprintf("%dKB, %d-way, %dB blocks, %d cycle latency",
					p.DL1.SizeBytes>>10, p.DL1.Assoc, p.DL1.BlockBytes, p.DL1.LatencyCycles)},
				{"L2", fmt.Sprintf("%dMB unified, %d-way, %dB blocks, %d cycle latency",
					p.L2.SizeBytes>>20, p.L2.Assoc, p.L2.BlockBytes, p.L2.LatencyCycles)},
				{"iTLB", fmt.Sprintf("%d entries, fully associative, %d cycle miss penalty",
					sim.DefaultITLB().Levels[0].Entries, sim.DefaultITLB().MissPenalty)},
				{"dTLB", fmt.Sprintf("%d entries, fully associative, %d cycle miss penalty",
					p.DTLB.Levels[0].Entries, p.DTLB.MissPenalty)},
				{"Page Size", "4KB"},
				{"DRAM", fmt.Sprintf("%d cycle latency", p.DRAMLatency)},
				{"Predictor", fmt.Sprintf("Bimodal with 4 states (%d counters)", p.Bpred.BimodalEntries)},
				{"BTB", fmt.Sprintf("%d entry, %d-way", p.Bpred.BTBEntries, p.Bpred.BTBAssoc)},
				{"RAS", fmt.Sprintf("%d entries", p.Bpred.RASEntries)},
				{"Mispred. penalty", fmt.Sprintf("%d cycles", p.Bpred.MispredictPenalty)},
			}
		},
	}
}

// Table1 renders the default machine configuration.
func Table1() Table { return mustGenerate(Table1Spec(), nil) }

// Table2Spec declares the benchmark-characteristics table: base cycles and
// iTLB energy under VI-PT and VI-VT, iL1 miss rate, dynamic branches, and
// the BOUNDARY/BRANCH page-crossing split.
func Table2Spec() Spec {
	return Spec{
		ID:    "Table 2",
		Title: "Benchmarks and their characteristics using the default configuration",
		Columns: []string{"Benchmark", "VI-PT Kcycles", "VI-PT E(uJ)", "VI-VT Kcycles",
			"VI-VT E(uJ)", "iL1 miss", "Branches M (pct)", "BOUNDARY", "BRANCH"},
		Notes: []string{
			"cycles in thousands, energies in microjoules (runs are shorter than the paper's 250M instructions)",
			"VI-VT base energy counts one iTLB access per fetch-side iL1 miss; the paper's VI-VT base accounting is several times higher (see EXPERIMENTS.md)",
		},
		Axes: []Axes{{Styles: []cache.Style{cache.VIPT, cache.VIVT}}},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				vipt := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT})
				vivt := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIVT})
				cross := vipt.CrossBoundary + vipt.CrossBranch
				bPct, brPct := "-", "-"
				if cross > 0 {
					bPct = pct(float64(vipt.CrossBoundary) / float64(cross))
					brPct = pct(float64(vipt.CrossBranch) / float64(cross))
				}
				rows = append(rows, []string{
					p.Name,
					kcycles(vipt.Cycles), uJ(vipt.EnergyMJ),
					kcycles(vivt.Cycles), uJ(vivt.EnergyMJ),
					f3(vipt.IL1MissRate()),
					fmt.Sprintf("%s (%s)", millions(vipt.DynBranches),
						pct(float64(vipt.DynBranches)/float64(vipt.Committed))),
					fmt.Sprintf("%d (%s)", vipt.CrossBoundary, bPct),
					fmt.Sprintf("%d (%s)", vipt.CrossBranch, brPct),
				})
			}
			return rows
		},
	}
}

// Table2 reproduces the benchmark-characteristics table.
func Table2(r *Runner) Table { return mustGenerate(Table2Spec(), r) }

// Table3Spec declares the dynamic lookup counts of SoCA, SoLA and IA under
// VI-PT, split into BOUNDARY and BRANCH causes.
func Table3Spec() Spec {
	schemes := []core.Scheme{core.SoCA, core.SoLA, core.IA}
	return Spec{
		ID:    "Table 3",
		Title: "Dynamic number of iTLB lookups for SoCA, SoLA, and IA (VI-PT)",
		Columns: []string{"Benchmark", "SoCA BOUNDARY", "SoCA BRANCH", "SoLA BOUNDARY",
			"SoLA BRANCH", "IA BOUNDARY", "IA BRANCH"},
		Axes: []Axes{{Schemes: schemes}},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				row := []string{p.Name}
				for _, sch := range schemes {
					res := r.Get(sim.Options{Profile: p, Scheme: sch, Style: cache.VIPT})
					tot := res.Engine.LookupsBoundary + res.Engine.LookupsBranch
					if tot == 0 {
						tot = 1
					}
					row = append(row,
						fmt.Sprintf("%d (%s)", res.Engine.LookupsBoundary,
							pct(float64(res.Engine.LookupsBoundary)/float64(tot))),
						fmt.Sprintf("%d (%s)", res.Engine.LookupsBranch,
							pct(float64(res.Engine.LookupsBranch)/float64(tot))),
					)
				}
				rows = append(rows, row)
			}
			return rows
		},
	}
}

// Table3 reproduces the dynamic iTLB lookup counts.
func Table3(r *Runner) Table { return mustGenerate(Table3Spec(), r) }

// Table4Spec declares the static and dynamic branch statistics. The static
// half reads the compiler statistics of the image each SoLA VI-PT run
// executes, from the Runner's image table (no simulation, and no
// recompilation on repeated requests); the dynamic half reads those runs.
func Table4Spec() Spec {
	return Spec{
		ID:    "Table 4",
		Title: "Static and dynamic branch statistics",
		Columns: []string{"Benchmark", "St.Total", "St.Analyzable", "St.Crossing", "St.InPage",
			"Dy.Total", "Dy.Analyzable", "Dy.Crossing", "Dy.InPage"},
		Axes: []Axes{{Schemes: []core.Scheme{core.SoLA}}},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				opt := sim.Options{Profile: p, Scheme: core.SoLA, Style: cache.VIPT}
				st, err := r.pool().StaticStats(opt)
				if err != nil {
					panic(err)
				}
				dyn := r.Get(opt)
				rows = append(rows, []string{
					p.Name,
					fmt.Sprintf("%d", st.TotalSites),
					fmt.Sprintf("%d (%s)", st.Analyzable, pct(st.AnalyzableFrac())),
					fmt.Sprintf("%d (%s)", st.CrossingPage, pct(1-st.InPageFrac())),
					fmt.Sprintf("%d (%s)", st.InPage, pct(st.InPageFrac())),
					fmt.Sprintf("%d", dyn.DynBranches),
					fmt.Sprintf("%d (%s)", dyn.DynAnalyzable,
						pct(float64(dyn.DynAnalyzable)/float64(max(dyn.DynBranches, 1)))),
					fmt.Sprintf("%d (%s)", dyn.DynCrossingBits,
						pct(float64(dyn.DynCrossingBits)/float64(max(dyn.DynAnalyzable, 1)))),
					fmt.Sprintf("%d (%s)", dyn.DynInPage,
						pct(float64(dyn.DynInPage)/float64(max(dyn.DynAnalyzable, 1)))),
				})
			}
			return rows
		},
	}
}

// Table4 reproduces the static and dynamic branch statistics.
func Table4(r *Runner) Table { return mustGenerate(Table4Spec(), r) }

// Table5Spec declares the branch predictor accuracies.
func Table5Spec() Spec {
	profiles := workload.Profiles()
	cols := make([]string, len(profiles))
	for i, p := range profiles {
		cols[i] = p.Name
	}
	return Spec{
		ID:      "Table 5",
		Title:   "Branch predictor accuracy",
		Columns: cols,
		Axes:    []Axes{{}},
		Rows: func(r *Runner) [][]string {
			row := make([]string, 0, len(profiles))
			for _, p := range profiles {
				res := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT})
				row = append(row, pct(res.Bpred.Accuracy()))
			}
			return [][]string{row}
		},
	}
}

// Table5 reproduces the branch predictor accuracies.
func Table5(r *Runner) Table { return mustGenerate(Table5Spec(), r) }

// ITLBSweep lists Table 6/7's four monolithic iTLB design points.
func ITLBSweep() []struct {
	Name string
	Cfg  tlb.Config
} {
	return []struct {
		Name string
		Cfg  tlb.Config
	}{
		{"1", tlb.Mono(1, 1)},
		{"8,FA", tlb.Mono(8, 8)},
		{"16,2w", tlb.Mono(16, 2)},
		{"32,FA", tlb.Mono(32, 32)},
	}
}

func itlbSweepConfigs() []tlb.Config {
	sweep := ITLBSweep()
	cfgs := make([]tlb.Config, len(sweep))
	for i, it := range sweep {
		cfgs[i] = it.Cfg
	}
	return cfgs
}

// Table6Spec declares energies (VI-PT, VI-VT) and VI-VT cycles for Base,
// OPT and IA across the four iTLB configurations.
func Table6Spec() Spec {
	return Spec{
		ID:    "Table 6",
		Title: "Energy and VI-VT cycles across iTLB configurations (Base / OPT / IA)",
		Columns: []string{"iTLB", "Benchmark", "PT Base E", "PT OPT E", "PT IA E",
			"VT Base E", "VT OPT E", "VT IA E", "VT Base KC", "VT OPT KC", "VT IA KC"},
		Notes: []string{
			"E in microjoules, KC = kilocycles; parenthesized = percentage of the base case",
		},
		Axes: []Axes{{
			Schemes: []core.Scheme{core.Base, core.OPT, core.IA},
			Styles:  []cache.Style{cache.VIPT, cache.VIVT},
			ITLBs:   itlbSweepConfigs(),
		}},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			for _, it := range ITLBSweep() {
				for _, p := range workload.Profiles() {
					get := func(sch core.Scheme, style cache.Style) sim.Result {
						return r.Get(sim.Options{Profile: p, Scheme: sch, Style: style, ITLB: it.Cfg})
					}
					bPT, oPT, iPT := get(core.Base, cache.VIPT), get(core.OPT, cache.VIPT), get(core.IA, cache.VIPT)
					bVT, oVT, iVT := get(core.Base, cache.VIVT), get(core.OPT, cache.VIVT), get(core.IA, cache.VIVT)
					norm := func(v, base float64) string {
						if base == 0 {
							return "-"
						}
						return fmt.Sprintf("(%s)", pct(v/base))
					}
					rows = append(rows, []string{
						it.Name, p.Name,
						uJ(bPT.EnergyMJ),
						uJ(oPT.EnergyMJ) + " " + norm(oPT.EnergyMJ, bPT.EnergyMJ),
						uJ(iPT.EnergyMJ) + " " + norm(iPT.EnergyMJ, bPT.EnergyMJ),
						uJ(bVT.EnergyMJ),
						uJ(oVT.EnergyMJ) + " " + norm(oVT.EnergyMJ, bVT.EnergyMJ),
						uJ(iVT.EnergyMJ) + " " + norm(iVT.EnergyMJ, bVT.EnergyMJ),
						kcycles(bVT.Cycles),
						kcycles(oVT.Cycles) + " " + norm(float64(oVT.Cycles), float64(bVT.Cycles)),
						kcycles(iVT.Cycles) + " " + norm(float64(iVT.Cycles), float64(bVT.Cycles)),
					})
				}
			}
			return rows
		},
	}
}

// Table6 reproduces the iTLB-configuration energy/cycle table.
func Table6(r *Runner) Table { return mustGenerate(Table6Spec(), r) }

// Table7Spec declares IA's VI-PT execution cycles across iTLB
// configurations.
func Table7Spec() Spec {
	return Spec{
		ID:      "Table 7",
		Title:   "Execution cycles (kilocycles) with different iTLB configurations for IA (VI-PT)",
		Columns: []string{"Benchmark", "1-entry", "8-entry FA", "16-entry 2w", "32-entry FA"},
		Axes: []Axes{{
			Schemes: []core.Scheme{core.IA},
			ITLBs:   itlbSweepConfigs(),
		}},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				row := []string{p.Name}
				for _, it := range ITLBSweep() {
					res := r.Get(sim.Options{Profile: p, Scheme: core.IA, Style: cache.VIPT, ITLB: it.Cfg})
					row = append(row, kcycles(res.Cycles))
				}
				rows = append(rows, row)
			}
			return rows
		},
	}
}

// Table7 reproduces IA's cycles across iTLB configurations.
func Table7(r *Runner) Table { return mustGenerate(Table7Spec(), r) }

// Table8Spec declares the PI-PT comparison: base PI-PT, PI-PT+IA, base
// VI-PT, base VI-VT (energy and cycles).
func Table8Spec() Spec {
	return Spec{
		ID:    "Table 8",
		Title: "iTLB energy (uJ) and cycles (kilocycles) comparison",
		Columns: []string{"Benchmark", "PI-PT(Base) E", "C", "PI-PT(IA) E", "C",
			"VI-PT(Base) E", "C", "VI-VT(Base) E", "C"},
		Axes: []Axes{
			{Schemes: []core.Scheme{core.Base, core.IA}, Styles: []cache.Style{cache.PIPT}},
			{Styles: []cache.Style{cache.VIPT, cache.VIVT}},
		},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				pB := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.PIPT})
				pIA := r.Get(sim.Options{Profile: p, Scheme: core.IA, Style: cache.PIPT})
				vPT := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT})
				vVT := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIVT})
				rows = append(rows, []string{
					p.Name,
					uJ(pB.EnergyMJ), kcycles(pB.Cycles),
					uJ(pIA.EnergyMJ), kcycles(pIA.Cycles),
					uJ(vPT.EnergyMJ), kcycles(vPT.Cycles),
					uJ(vVT.EnergyMJ), kcycles(vVT.Cycles),
				})
			}
			return rows
		},
	}
}

// Table8 reproduces the PI-PT comparison.
func Table8(r *Runner) Table { return mustGenerate(Table8Spec(), r) }
