package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

func testResult(t *testing.T) sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Options{
		Profile: workload.Mesa(), Scheme: core.IA, Style: cache.VIPT,
		Instructions: 10_000, Warmup: 2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseOpt() sim.Options {
	return sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
}

// TestKeyCanonicalization: every way of spelling the defaults maps to one
// key, and any real configuration change maps to a different one.
func TestKeyCanonicalization(t *testing.T) {
	base := Key(baseOpt())

	pcfg := sim.DefaultPipeline()
	explicit := baseOpt()
	explicit.Instructions = sim.DefaultInstructions
	explicit.Warmup = sim.DefaultWarmup
	explicit.ITLB = sim.DefaultITLB()
	explicit.PageBytes = 4096
	explicit.Pipeline = &pcfg
	if got := Key(explicit); got != base {
		t.Errorf("explicit defaults keyed differently:\n %s\n %s", got, base)
	}

	// The pipeline's iL1 style is overwritten by Options.Style in sim.Run,
	// so it must not split keys.
	styled := explicit
	p2 := pcfg
	p2.IL1Style = cache.PIPT
	styled.Pipeline = &p2
	if got := Key(styled); got != base {
		t.Error("pipeline IL1Style split the key despite being overwritten by Options.Style")
	}

	for name, mutate := range map[string]func(*sim.Options){
		"scheme": func(o *sim.Options) { o.Scheme = core.IA },
		"style":  func(o *sim.Options) { o.Style = cache.VIVT },
		"bench":  func(o *sim.Options) { o.Profile = workload.Vortex() },
		"itlb": func(o *sim.Options) {
			o.ITLB = sim.DefaultITLB()
			o.ITLB.Levels[0].Entries = 64
			o.ITLB.Levels[0].Assoc = 64
		},
		"page":         func(o *sim.Options) { o.PageBytes = 8192 },
		"instructions": func(o *sim.Options) { o.Instructions = 1 },
		"warmup":       func(o *sim.Options) { o.Warmup = 1 },
		"pipeline": func(o *sim.Options) {
			p := sim.DefaultPipeline()
			p.FetchWidth = 8
			o.Pipeline = &p
		},
	} {
		o := baseOpt()
		mutate(&o)
		if Key(o) == base {
			t.Errorf("%s change did not change the key", name)
		}
	}

	if !strings.HasPrefix(base, "s1-") {
		t.Errorf("key %q missing schema prefix", base)
	}
}

// TestKeyPinned pins the key bytes of two configurations to the values the
// store has always produced, so entries already on disk stay reachable: a
// change to the canonical encoding must fail here rather than silently
// orphan every cache.
func TestKeyPinned(t *testing.T) {
	for _, c := range []struct {
		opt  sim.Options
		want string
	}{
		{sim.Options{Profile: workload.Mesa(), Scheme: core.IA, Style: cache.VIPT},
			"s1-d361fb386d09f14197ed0d745495c00366b00494101d1fd154a5851d192be3ca"},
		{sim.Options{Scheme: core.SoLA, Style: cache.VIVT, Trace: &sim.TraceRef{Key: "t1-abc"}},
			"s1-85b0e409a05dcddd88f55ca3128f5ed06f8de6a8398546fdd644985e20315ce3"},
	} {
		if got := Key(c.opt); got != c.want {
			t.Errorf("Key(%s/%s/%s) = %s, want %s", c.opt.BenchName(), c.opt.Scheme, c.opt.Style, got, c.want)
		}
	}
}

// TestCanonicalDoesNotMutate: the caller's pipeline override must not be
// written through.
func TestCanonicalDoesNotMutate(t *testing.T) {
	p := sim.DefaultPipeline()
	p.IL1Style = cache.VIPT
	o := baseOpt()
	o.Style = cache.PIPT
	o.Pipeline = &p
	o.Canonical()
	if p.IL1Style != cache.VIPT {
		t.Error("Canonical mutated the caller's pipeline config")
	}
}

func TestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	key := Key(baseOpt())

	if _, ok := st.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(key)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("round trip lost information:\n got %+v\nwant %+v", got, res)
	}
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put", s)
	}
}

// TestCorruptEntries: truncated files, garbage, wrong schema versions and
// key mismatches all degrade to a miss without error.
func TestCorruptEntries(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	key := Key(baseOpt())
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	p := st.path(key)
	good, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, b []byte) {
		t.Helper()
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(key); ok {
			t.Errorf("%s entry served as a hit", name)
		}
	}
	corrupt("truncated", good[:len(good)/2])
	corrupt("garbage", []byte("{not json"))
	corrupt("empty", nil)

	var e envelope
	if err := json.Unmarshal(good, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = SchemaVersion + 1
	stale, _ := json.Marshal(e)
	corrupt("wrong-schema", stale)

	e.Schema = SchemaVersion
	e.Key = "s1-someoneelse"
	mismatch, _ := json.Marshal(e)
	corrupt("key-mismatch", mismatch)

	if st.Stats().Corrupt < 2 {
		t.Errorf("corrupt counter = %d, want >= 2", st.Stats().Corrupt)
	}

	// A fresh Put repairs the entry.
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, res) {
		t.Error("Put over a corrupt entry did not repair it")
	}
}

// TestConcurrentWriters: many goroutines writing the same key must not
// corrupt the entry (atomic rename; identical content per key).
func TestConcurrentWriters(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	key := Key(baseOpt())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Put(key, res); err != nil {
				t.Error(err)
			}
			if got, ok := st.Get(key); ok && !reflect.DeepEqual(got, res) {
				t.Error("reader observed a partial or mixed entry")
			}
		}()
	}
	wg.Wait()
	got, ok := st.Get(key)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Error("entry corrupt after concurrent writers")
	}
	// No temp droppings left behind.
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(st.path(key)), ".tmp-*"))
	if len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
}

// TestUnwritableStore: when the entry's shard cannot be created (here the
// shard path is blocked by a regular file — chmod is unreliable under
// root), Put reports an error and Get degrades to a miss; nothing panics
// and nothing leaks to readers.
func TestUnwritableStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(baseOpt())
	shard := filepath.Dir(st.path(key))
	if err := os.WriteFile(shard, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, testResult(t)); err == nil {
		t.Error("Put into a blocked shard should error")
	}
	if _, ok := st.Get(key); ok {
		t.Error("blocked shard produced a hit")
	}
	if s := st.Stats(); s.PutErrors != 1 {
		t.Errorf("PutErrors = %d, want 1", s.PutErrors)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") should error")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Error("Open over a regular file should error")
	}
}
