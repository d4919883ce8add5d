package pipeline

import (
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
)

// BenchmarkAccountMem measures the per-memory-op back-end charge — the
// data-side hot path the bulk loop calls for every committed load and store:
// the dTLB lookup (or data CFR), dL1, and on a dL1 miss the L2/DRAM levels.
// Two regimes bracket it: the streaming case (stride-16 loads walking a
// page, the default workload's shape — dTLB level-memo and cache
// same-block-memo hits dominate) and a page- and block-hostile stride that
// misses both memos and frequently the dL1.
func BenchmarkAccountMem(b *testing.B) {
	build := func(b *testing.B) *Machine {
		img := benchImage(b, core.Base)
		return buildStack(b, testConfig(cache.VIPT), img, core.Base, false).m
	}
	bench := func(b *testing.B, stride addr.VAddr, span addr.VAddr) {
		m := build(b)
		st := program.Step{Kind: isa.Load, Data: 0}
		b.ReportAllocs()
		b.ResetTimer()
		bc := m.backCycle
		for i := 0; i < b.N; i++ {
			st.Data = (addr.VAddr(i) * stride) % span
			if i&7 == 0 {
				st.Kind = isa.Store
			} else {
				st.Kind = isa.Load
			}
			bc = m.accountMem(&st, bc)
		}
		b.StopTimer()
		m.backCycle = bc
	}
	b.Run("stream-stride16", func(b *testing.B) {
		bench(b, 16, 64<<10) // resident in dL1+L2, same page for 256 ops
	})
	b.Run("hostile-stride", func(b *testing.B) {
		bench(b, 4096+32, 64<<20) // new page and new block almost every op
	})
}
