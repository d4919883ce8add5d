package cache

import (
	"testing"
	"testing/quick"
)

func il1() Config {
	return Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 1, LatencyCycles: 1}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		il1(),
		{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 2, LatencyCycles: 1},
		{SizeBytes: 1 << 20, BlockBytes: 128, Assoc: 2, LatencyCycles: 10},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{},
		{SizeBytes: 1000, BlockBytes: 32, Assoc: 1},
		{SizeBytes: 8192, BlockBytes: 24, Assoc: 1},
		{SizeBytes: 8192, BlockBytes: 32, Assoc: 3},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
}

func TestStyleString(t *testing.T) {
	if VIVT.String() != "VI-VT" || VIPT.String() != "VI-PT" || PIPT.String() != "PI-PT" {
		t.Error("style names wrong")
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(il1())
	if r := c.Access(0x1000, 0x1000, false); r.Hit {
		t.Error("cold access should miss")
	}
	if r := c.Access(0x1000, 0x1000, false); !r.Hit {
		t.Error("warm access should hit")
	}
	if r := c.Access(0x101C, 0x101C, false); !r.Hit {
		t.Error("same-block access should hit")
	}
	if r := c.Access(0x1020, 0x1020, false); r.Hit {
		t.Error("next block should miss")
	}
	if c.MissRate() != 0.5 {
		t.Errorf("MissRate = %v", c.MissRate())
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(il1()) // 256 sets of 32B
	a := uint64(0x0000)
	b := a + 8<<10 // same index, different tag
	c.Access(a, a, false)
	c.Access(b, b, false)
	if r := c.Access(a, a, false); r.Hit {
		t.Error("direct-mapped conflict should have evicted a")
	}
}

func TestTwoWayLRU(t *testing.T) {
	cfg := il1()
	cfg.Assoc = 2
	c := New(cfg) // 128 sets
	a := uint64(0)
	b := a + 4<<10 // same set (128 sets * 32B = 4KB stride)
	d := a + 8<<10
	c.Access(a, a, false)
	c.Access(b, b, false)
	c.Access(a, a, false) // refresh a; b becomes LRU
	c.Access(d, d, false) // evicts b
	if r := c.Access(a, a, false); !r.Hit {
		t.Error("a should survive (MRU)")
	}
	if r := c.Access(b, b, false); r.Hit {
		t.Error("b should have been evicted")
	}
}

func TestSplitIndexTag(t *testing.T) {
	// VI-PT style: index with one address, tag with another. Two different
	// physical tags behind the same virtual index must not alias.
	c := New(il1())
	va := uint64(0x4000)
	pa1 := uint64(0x7_0000)
	pa2 := uint64(0x9_0000)
	c.Access(va, pa1, false)
	if r := c.Access(va, pa2, false); r.Hit {
		t.Error("different physical tag must miss")
	}
	if r := c.Access(va, pa2, false); !r.Hit {
		t.Error("pa2 now resident")
	}
}

func TestWriteBack(t *testing.T) {
	cfg := il1()
	cfg.WriteBack = true
	c := New(cfg)
	c.Access(0x0000, 0x0000, true) // dirty fill
	r := c.Access(0x0000+8<<10, 0x0000+8<<10, false)
	if !r.WriteBack {
		t.Error("evicting a dirty line must signal write-back")
	}
	if c.Stats().WriteBacks != 1 {
		t.Errorf("WriteBacks = %d", c.Stats().WriteBacks)
	}
	// Clean eviction: no write-back.
	c2 := New(cfg)
	c2.Access(0x0000, 0x0000, false)
	if r := c2.Access(0x0000+8<<10, 0x0000+8<<10, false); r.WriteBack {
		t.Error("clean eviction must not write back")
	}
}

func TestWriteIgnoredWhenNotWriteBack(t *testing.T) {
	c := New(il1()) // WriteBack=false
	c.Access(0x0000, 0x0000, true)
	if r := c.Access(0x0000+8<<10, 0x0000+8<<10, false); r.WriteBack {
		t.Error("write-through cache should never report write-backs")
	}
}

func TestFlush(t *testing.T) {
	cfg := il1()
	cfg.WriteBack = true
	c := New(cfg)
	c.Access(0, 0, true)
	c.Access(32, 32, false)
	if d := c.Flush(); d != 1 {
		t.Errorf("Flush dropped %d dirty lines, want 1", d)
	}
	if r := c.Access(0, 0, false); r.Hit {
		t.Error("flushed line should miss")
	}
}

func TestLargerCacheNeverWorseProperty(t *testing.T) {
	// Property (LRU inclusion): doubling a fully-associative cache never
	// increases misses on the same trace.
	f := func(seq []uint16) bool {
		small := New(Config{SizeBytes: 1 << 10, BlockBytes: 32, Assoc: 32, LatencyCycles: 1})
		big := New(Config{SizeBytes: 2 << 10, BlockBytes: 32, Assoc: 64, LatencyCycles: 1})
		for _, s := range seq {
			a := uint64(s) * 32
			small.Access(a, a, false)
			big.Access(a, a, false)
		}
		return big.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRepeatAccessAlwaysHitsProperty(t *testing.T) {
	// Property: an access immediately repeated always hits.
	f := func(seq []uint32) bool {
		c := New(il1())
		for _, s := range seq {
			a := uint64(s)
			c.Access(a, a, false)
			if r := c.Access(a, a, false); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{SizeBytes: 100, BlockBytes: 32, Assoc: 1})
}
