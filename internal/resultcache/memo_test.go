package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// decoded is what the test decoder produces: a fresh pointer per
// decode, so pointer identity tells a memo hit from a re-decode.
type decoded struct{ s string }

// counter is a decoder that counts its calls and can be made to fail.
type counter struct {
	n    atomic.Int64
	fail atomic.Bool
}

// decode reports the memo's size as len(b), so a memoized entry is
// charged twice its bytes.
func (d *counter) decode(b []byte) (any, int64, error) {
	d.n.Add(1)
	if d.fail.Load() {
		return nil, 0, errors.New("bad bytes")
	}
	return &decoded{string(b)}, int64(len(b)), nil
}

func computeOf(s string) func(context.Context) (any, []byte, error) {
	return func(context.Context) (any, []byte, error) { return &decoded{s}, []byte(s), nil }
}

func mustDecoded(t *testing.T, c *Cache, k Key, d *counter, compute func(context.Context) (any, []byte, error)) (*decoded, bool) {
	t.Helper()
	v, hit, err := c.GetOrComputeDecoded(context.Background(), k, d.decode, compute)
	if err != nil {
		t.Fatal(err)
	}
	return v.(*decoded), hit
}

// A decoded lookup counts exactly like GetOrCompute: the same mixed
// sequence of Get, GetOrCompute and lookups yields the same Stats
// whichever of the two serves the lookups. Only Bytes differs, by one
// extra len(val) per memoized entry.
func TestDecodedLookupCountsLikeGetOrCompute(t *testing.T) {
	type op struct {
		kind  string // "get", "put", "compute", "lookup"
		base  int
		fault string
	}
	seq := []op{
		{"lookup", 0, "f"}, {"lookup", 0, "f"}, {"lookup", 0, "f"},
		{"get", 0, "f"}, {"lookup", 0, "g"}, {"put", 1, "f"},
		{"lookup", 1, "f"}, {"compute", 1, "f"}, {"get", 2, "f"},
		{"compute", 2, "f"}, {"lookup", 2, "f"}, {"lookup", 3, "f"},
		{"lookup", 4, "f"}, {"get", 0, "f"}, {"lookup", 1, "f"},
		{"lookup", 3, "f"}, {"compute", 4, "f"}, {"lookup", 0, "f"},
	}
	run := func(decodedLookups bool) (Stats, []string) {
		c, err := Open(Config{MaxEntries: 4})
		if err != nil {
			t.Fatal(err)
		}
		var d counter
		var got []string
		ctx := context.Background()
		for _, o := range seq {
			k := mustKey(t, "t", o.base, o.fault)
			val := fmt.Sprintf("v%d%s", o.base, o.fault)
			switch {
			case o.kind == "get":
				v, ok := c.Get(k)
				got = append(got, fmt.Sprintf("get %q %v", v, ok))
			case o.kind == "put":
				c.Put(k, []byte(val))
			case o.kind == "compute" || !decodedLookups:
				v, hit, err := c.GetOrCompute(ctx, k, func(context.Context) ([]byte, error) { return []byte(val), nil })
				got = append(got, fmt.Sprintf("lookup %q %v %v", v, hit, err))
			default:
				v, hit, err := c.GetOrComputeDecoded(ctx, k, d.decode, computeOf(val))
				got = append(got, fmt.Sprintf("lookup %q %v %v", v.(*decoded).s, hit, err))
			}
		}
		return c.Stats(), got
	}
	plain, plainGot := run(false)
	memo, memoGot := run(true)
	if fmt.Sprint(plainGot) != fmt.Sprint(memoGot) {
		t.Fatalf("results diverge:\nplain %v\nmemo  %v", plainGot, memoGot)
	}
	if plain.Evictions == 0 || plain.Bypasses == 0 || plain.Hits == 0 || plain.Misses == 0 {
		t.Fatalf("sequence exercises too little: %+v", plain)
	}
	if memo.Bytes <= plain.Bytes {
		t.Fatalf("memoized bytes %d not charged above plain %d", memo.Bytes, plain.Bytes)
	}
	memo.Bytes = plain.Bytes
	if memo != plain {
		t.Fatalf("stats diverge:\nplain %+v\nmemo  %+v", plain, memo)
	}
}

// A miss returns the computed value without memoizing it; the first
// hit decodes and memoizes, later hits share that value, and the memo
// is charged against MaxBytes at len(val) a second time.
func TestDecodedHitMemoizes(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var d counter
	k := mustKey(t, "t", "p", nil)
	miss, hit := mustDecoded(t, c, k, &d, computeOf("value"))
	if hit || miss.s != "value" || d.n.Load() != 0 {
		t.Fatalf("miss: hit=%v value=%q decodes=%d", hit, miss.s, d.n.Load())
	}
	if s := c.Stats(); s.Bytes != 5 {
		t.Fatalf("bytes after miss = %d, want 5 (no memo)", s.Bytes)
	}
	first, hit := mustDecoded(t, c, k, &d, nil)
	if !hit || first == miss || first.s != "value" || d.n.Load() != 1 {
		t.Fatalf("first hit: hit=%v shared-with-miss=%v decodes=%d", hit, first == miss, d.n.Load())
	}
	again, _ := mustDecoded(t, c, k, &d, nil)
	if again != first || d.n.Load() != 1 {
		t.Fatalf("memo hit re-decoded: same=%v decodes=%d", again == first, d.n.Load())
	}
	if s := c.Stats(); s.Bytes != 10 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want bytes=10 hits=2 misses=1", s)
	}
	// Get still hands out private byte copies.
	if v, ok := c.Get(k); !ok || string(v) != "value" {
		t.Fatalf("Get after memo: %q %v", v, ok)
	}
}

// Eviction drops the memo with its entry; the re-stored entry decodes
// afresh on its next hit.
func TestEvictionDropsMemo(t *testing.T) {
	c, err := Open(Config{MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	var d counter
	kA, kB := mustKey(t, "t", "a", nil), mustKey(t, "t", "b", nil)
	c.Put(kA, []byte("aaaa"))
	first, _ := mustDecoded(t, c, kA, &d, nil)
	c.Put(kB, []byte("bb"))
	if s := c.Stats(); s.Evictions != 1 || s.Bytes != 2 {
		t.Fatalf("stats = %+v, want evictions=1 bytes=2 (memo charge released)", s)
	}
	c.Put(kA, []byte("aaaa"))
	fresh, hit := mustDecoded(t, c, kA, &d, nil)
	if !hit || fresh == first || d.n.Load() != 2 {
		t.Fatalf("re-stored entry: hit=%v reused-old-memo=%v decodes=%d", hit, fresh == first, d.n.Load())
	}
}

// An entry whose doubled charge would exceed MaxBytes is served but
// never memoized; one larger than MaxBytes is not kept at all and is
// counted as oversize.
func TestMemoAndOversizeRespectMaxBytes(t *testing.T) {
	c, err := Open(Config{MaxBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	var d counter
	k := mustKey(t, "t", "six", nil)
	c.Put(k, []byte("123456"))
	for i := 1; i <= 2; i++ {
		if v, hit := mustDecoded(t, c, k, &d, nil); !hit || v.s != "123456" {
			t.Fatalf("hit %d: %v %q", i, hit, v.s)
		}
	}
	if s := c.Stats(); d.n.Load() != 2 || s.Bytes != 6 || s.Evictions != 0 {
		t.Fatalf("decodes=%d stats=%+v, want 2 decodes, bytes=6, no evictions", d.n.Load(), s)
	}

	big := mustKey(t, "t", "big", nil)
	c.Put(big, bytes.Repeat([]byte("x"), 11))
	if _, ok := c.Get(big); ok {
		t.Fatal("oversize value pinned in memory")
	}
	if _, hit := mustDecoded(t, c, big, &d, computeOf("yyyyyyyyyyyy")); hit {
		t.Fatal("oversize recompute reported a hit")
	}
	if s := c.Stats(); s.Oversize != 2 || s.Entries != 1 || s.Bytes != 6 {
		t.Fatalf("stats = %+v, want oversize=2 with the small entry untouched", s)
	}
}

// A disk-promoted entry decodes on its promoting hit and memoizes.
func TestDiskPromotedEntryMemoizes(t *testing.T) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "cache.jsonl"), Fingerprint: "fp-test"}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "t", "problem", "fault")
	c.Put(k, []byte(`{"answer":42}`))
	c.Close()

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var d counter
	first, hit := mustDecoded(t, c2, k, &d, nil)
	if !hit || first.s != `{"answer":42}` {
		t.Fatalf("promoting hit: %v %q", hit, first.s)
	}
	again, _ := mustDecoded(t, c2, k, &d, nil)
	if again != first || d.n.Load() != 1 {
		t.Fatalf("promoted entry not memoized: same=%v decodes=%d", again == first, d.n.Load())
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 2 || s.Bytes != 2*int64(len(`{"answer":42}`)) {
		t.Fatalf("stats = %+v, want disk_hits=1 hits=2 and a memo charge", s)
	}
}

// A decode error is returned and nothing is memoized: the next hit
// decodes again.
func TestDecodeErrorNotMemoized(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var d counter
	k := mustKey(t, "t", "p", nil)
	c.Put(k, []byte("v"))
	d.fail.Store(true)
	if v, hit, err := c.GetOrComputeDecoded(context.Background(), k, d.decode, nil); err == nil || hit || v != nil {
		t.Fatalf("decode failure: v=%v hit=%v err=%v", v, hit, err)
	}
	if s := c.Stats(); s.Bytes != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want the failed hit counted and no memo charge", s)
	}
	d.fail.Store(false)
	if v, hit := mustDecoded(t, c, k, &d, nil); !hit || v.s != "v" || d.n.Load() != 2 {
		t.Fatalf("after failure: hit=%v value=%q decodes=%d", hit, v.s, d.n.Load())
	}
}

// A caller collapsed onto a decoded computation decodes the
// executor's bytes without computing; neither value is memoized.
func TestDecodedCollapseDecodesExecutorBytes(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var d counter
	k := mustKey(t, "t", "slow", nil)
	entered, release := make(chan struct{}), make(chan struct{})
	computed := &decoded{"answer"}
	first := make(chan any, 1)
	go func() {
		v, _, _ := c.GetOrComputeDecoded(context.Background(), k, d.decode, func(context.Context) (any, []byte, error) {
			close(entered)
			<-release
			return computed, []byte("answer"), nil
		})
		first <- v
	}()
	<-entered
	second := make(chan any, 1)
	go func() {
		v, hit, err := c.GetOrComputeDecoded(context.Background(), k, d.decode, func(context.Context) (any, []byte, error) {
			return nil, nil, errors.New("second caller must not execute")
		})
		if err != nil || !hit {
			t.Errorf("collapsed caller: hit=%v err=%v", hit, err)
		}
		second <- v
	}()
	for c.Stats().Collapsed == 0 {
	}
	close(release)
	v1, v2 := <-first, <-second
	if v1 != computed || v2.(*decoded).s != "answer" || d.n.Load() != 1 {
		t.Fatalf("collapse: executor=%v waiter=%v decodes=%d", v1, v2, d.n.Load())
	}
	if s := c.Stats(); s.Bytes != int64(len("answer")) {
		t.Fatalf("stats = %+v: a miss or a collapse memoized", s)
	}
}

// Concurrent decoded hits on one key all return the one memoized
// value, whichever of them decoded it. Run under -race.
func TestConcurrentDecodedHits(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var d counter
	k := mustKey(t, "t", "hot", nil)
	c.Put(k, []byte("hot"))
	const goroutines = 16
	vals := make([]any, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			v, hit, err := c.GetOrComputeDecoded(context.Background(), k, d.decode, nil)
			if err != nil || !hit {
				t.Errorf("goroutine %d: hit=%v err=%v", g, hit, err)
			}
			vals[g] = v
		}(g)
	}
	start.Done()
	done.Wait()
	if d.n.Load() < 1 {
		t.Fatal("nothing decoded")
	}
	memo, _ := mustDecoded(t, c, k, &d, nil)
	for g, v := range vals {
		if v != memo {
			t.Fatalf("goroutine %d got %p, memo is %p", g, v, memo)
		}
	}
	if s := c.Stats(); s.Hits != goroutines+1 || s.Bytes != 6 {
		t.Fatalf("stats = %+v, want %d hits and one memo charge", s, goroutines+1)
	}
}

// A memo is charged at the size its decoder reports, not at the
// entry's byte length, and is not kept when the entry's bytes and that
// size together exceed MaxBytes.
func TestMemoChargedAtReportedSize(t *testing.T) {
	const size = 40
	decode := func(b []byte) (any, int64, error) { return &decoded{string(b)}, size, nil }
	for _, tc := range []struct {
		maxBytes int64
		want     int64
	}{{100, 5 + size}, {44, 5}} {
		c, err := Open(Config{MaxBytes: tc.maxBytes})
		if err != nil {
			t.Fatal(err)
		}
		k := mustKey(t, "t", "p", nil)
		c.Put(k, []byte("value"))
		if _, hit, err := c.GetOrComputeDecoded(context.Background(), k, decode, nil); err != nil || !hit {
			t.Fatalf("MaxBytes %d: hit=%v err=%v", tc.maxBytes, hit, err)
		}
		if s := c.Stats(); s.Bytes != tc.want || s.Entries != 1 || s.Evictions != 0 {
			t.Fatalf("MaxBytes %d: stats = %+v, want bytes=%d and the entry kept", tc.maxBytes, s, tc.want)
		}
	}
}
