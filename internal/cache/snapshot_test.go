package cache

import (
	"testing"
)

// snapConfigs are the geometries FuzzSnapshotRestore picks from: the
// direct-mapped and two-way fast paths, the generic associative path, with
// and without write-back. All are small so a short stream fills them.
var snapConfigs = []Config{
	{SizeBytes: 512, BlockBytes: 32, Assoc: 1},
	{SizeBytes: 512, BlockBytes: 32, Assoc: 2, WriteBack: true},
	{SizeBytes: 1024, BlockBytes: 64, Assoc: 4, WriteBack: true},
	{SizeBytes: 256, BlockBytes: 16, Assoc: 2},
}

// snapAccess decodes access i of a byte stream: two bytes pick the block
// (spread over four times the cache's footprint, so sets conflict and
// evict), a third byte picks a tag offset (VI-PT style split) and the write
// bit.
func snapAccess(cfg Config, stream []byte, i int) (index, tag uint64, write bool) {
	b := stream[3*i : 3*i+3]
	blocks := uint64(4 * cfg.SizeBytes / cfg.BlockBytes)
	block := (uint64(b[0])<<8 | uint64(b[1])) % blocks
	index = block * uint64(cfg.BlockBytes)
	tag = index
	if b[2]&0x80 != 0 {
		tag += uint64(b[2]&0x0f) * uint64(cfg.SizeBytes)
	}
	return index, tag, b[2]&1 != 0
}

// FuzzSnapshotRestore pins the sparse snapshot's exactness. A cache runs a
// fuzzed access stream and is snapshotted at a fuzzed step; the snapshot is
// restored into a fresh cache and into one dirtied by a different stream.
// All three then take the same suffix, and every Result and the final Stats
// must equal those of a cache that ran the whole stream unsnapshotted.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add(uint8(0), uint16(5), []byte("\x00\x01\x00\x00\x11\x81\x00\x01\x01\x00\x21\x00\x00\x01\x81\x00\x31\x01"), []byte("\x00\x02\x01"))
	f.Add(uint8(1), uint16(0), []byte("\x01\x00\x01\x00\x10\x80\x00\x20\x01\x00\x10\x00"), []byte("\x05\x05\x05\x06\x06\x06\x07\x07\x07"))
	f.Add(uint8(2), uint16(100), []byte("\x00\x00\x01\x00\x40\x01\x00\x80\x01\x00\xc0\x01\x01\x00\x01\x00\x00\x00"), []byte{})
	f.Add(uint8(3), uint16(2), []byte("\xff\xff\xff\x00\x00\x00\xff\xff\xff\x00\x00\x00"), []byte("\xff\xff\xff"))
	// An empty snapshot restored over a cache holding the block the suffix
	// reads: the restore must forget it.
	f.Add(uint8(0), uint16(0), []byte("\x00\x00\x00"), []byte("\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, geom uint8, snapAt uint16, stream, other []byte) {
		cfg := snapConfigs[int(geom)%len(snapConfigs)]
		n := len(stream) / 3
		k := int(snapAt) % (n + 1)

		plain := New(cfg)
		src := New(cfg)
		for i := 0; i < k; i++ {
			ix, tg, w := snapAccess(cfg, stream, i)
			plain.Access(ix, tg, w)
			src.Access(ix, tg, w)
		}
		st := src.Snapshot()

		fresh := New(cfg)
		if err := fresh.Restore(st); err != nil {
			t.Fatal(err)
		}
		dirty := New(cfg)
		for i := 0; i < len(other)/3; i++ {
			dirty.Access(snapAccess(cfg, other, i))
		}
		if err := dirty.Restore(st); err != nil {
			t.Fatal(err)
		}

		for i := k; i < n; i++ {
			ix, tg, w := snapAccess(cfg, stream, i)
			want := plain.Access(ix, tg, w)
			for name, c := range map[string]*Cache{"source": src, "fresh": fresh, "dirtied": dirty} {
				if got := c.Access(ix, tg, w); got != want {
					t.Fatalf("%s restore: access %d (%#x/%#x w=%v) = %+v, unsnapshotted cache %+v",
						name, i, ix, tg, w, got, want)
				}
			}
		}
		for name, c := range map[string]*Cache{"source": src, "fresh": fresh, "dirtied": dirty} {
			if c.Stats() != plain.Stats() {
				t.Fatalf("%s restore: stats %+v, unsnapshotted cache %+v", name, c.Stats(), plain.Stats())
			}
		}
	})
}

// TestSnapshotIsSparse checks that a snapshot stores exactly the touched
// lines, and that a restore refuses a snapshot of another geometry.
func TestSnapshotIsSparse(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, BlockBytes: 128, Assoc: 2})
	if got := len(c.Snapshot().idx); got != 0 {
		t.Errorf("cold cache snapshot stores %d lines, want 0", got)
	}
	for i := uint64(0); i < 100; i++ {
		c.Access(i*128, i*128, false)
	}
	st := c.Snapshot()
	if len(st.idx) != 100 {
		t.Errorf("snapshot stores %d lines after 100 distinct fills, want 100", len(st.idx))
	}
	if dense := 16 * 8192; st.Bytes() >= dense/10 {
		t.Errorf("snapshot is %d bytes, want well under the dense %d", st.Bytes(), dense)
	}
	if err := New(il1()).Restore(st); err == nil {
		t.Error("restore across geometries succeeded, want an error")
	}
}
