package resultcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Config sizes and locates a cache.
type Config struct {
	// MaxEntries bounds the in-memory tier's entry count (0 = 4096).
	MaxEntries int
	// MaxBytes bounds the in-memory tier's total value bytes
	// (0 = 64 MiB), counting an entry's memo too once it holds one, at
	// the size its decoder reports (see GetOrComputeDecoded). Both
	// bounds are enforced by LRU eviction; an entry larger than
	// MaxBytes is stored on disk (if configured) but not pinned in
	// memory, and counted in Stats.Oversize.
	MaxBytes int64
	// Path, when non-empty, enables the on-disk tier: an append-only
	// JSONL segment whose records reuse the campaign journal's v2
	// self-verifying envelope. Entries evicted from memory remain
	// servable from disk, and the file survives process restarts.
	Path string
	// Fingerprint is the evaluator build fingerprint (wire.Fingerprint
	// in this repo). It versions the disk segment: a file written by a
	// different build is discarded wholesale on open, so a stale binary
	// can never serve results computed by different code. Required when
	// Path is set.
	Fingerprint string
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts lookups served from either tier (disk hits are also
	// counted in DiskHits). Misses counts lookups that found nothing
	// under the full key with no fault-model near-miss. Bypasses counts
	// lookups whose base key matched a cached entry but whose
	// fault/wear/recovery component differed — deliberately not served.
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Bypasses uint64 `json:"bypasses"`
	// Collapsed counts GetOrCompute/GetOrComputeDecoded callers that
	// waited on another caller's in-flight computation of the same key
	// (singleflight).
	Collapsed uint64 `json:"collapsed"`
	// Evictions counts LRU evictions from the memory tier. DiskHits
	// counts hits promoted from the disk tier; DiskDrops counts disk
	// records discarded as corrupt, torn, stale-fingerprint, or
	// unwritable — always a miss or a smaller file, never an error.
	Evictions uint64 `json:"evictions"`
	DiskHits  uint64 `json:"disk_hits"`
	DiskDrops uint64 `json:"disk_drops"`
	// Oversize counts values too large for MaxBytes that were therefore
	// not kept in memory: served from disk later if the disk tier is
	// on, lost otherwise.
	Oversize uint64 `json:"oversize"`
	// Entries/Bytes describe the memory tier right now (Bytes as
	// charged against MaxBytes, memos included); DiskEntries
	// the disk index.
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	DiskEntries int   `json:"disk_entries"`
}

// Cache is a two-tier (memory LRU + optional disk segment)
// content-addressed result cache. All methods are safe for concurrent
// use. Values returned by Get/GetOrCompute are private copies; values
// returned by GetOrComputeDecoded are shared and read-only.
type Cache struct {
	maxEntries int
	maxBytes   int64

	mu     sync.Mutex
	lru    *list.List               // front = most recent; elements hold *entry
	index  map[string]*list.Element // full key → element
	faults map[string]string        // base key → fault key last stored (bypass detection)
	bytes  int64
	stats  Stats
	disk   *diskTier

	fmu    sync.Mutex
	flight map[string]*call
}

type entry struct {
	key Key
	val []byte
	// memo is the decoded form of val, set by the first
	// GetOrComputeDecoded hit and dropped with the entry; memoSize is
	// the size its decoder reported for it.
	memo     any
	memoSize int64
}

// size is what the entry charges against MaxBytes: its bytes, plus its
// memo's reported size once it holds one.
func (e *entry) size() int64 {
	return int64(len(e.val)) + e.memoSize
}

// call is one in-flight computation other callers can wait on.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Open creates a cache. With cfg.Path set, the disk segment is loaded
// (or created), dropping it first if its fingerprint does not match
// cfg.Fingerprint. Disk corruption is never an error: bad records are
// skipped and counted.
func Open(cfg Config) (*Cache, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	c := &Cache{
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		lru:        list.New(),
		index:      make(map[string]*list.Element),
		faults:     make(map[string]string),
		flight:     make(map[string]*call),
	}
	if cfg.Path != "" {
		if cfg.Fingerprint == "" {
			return nil, errors.New("resultcache: disk tier requires a build fingerprint")
		}
		d, dropped, err := openDisk(cfg.Path, cfg.Fingerprint)
		if err != nil {
			return nil, err
		}
		c.disk = d
		c.stats.DiskDrops += dropped
		for _, k := range d.keys() {
			c.faults[k.Base] = k.Fault
		}
	}
	return c, nil
}

// Get looks k up in the memory tier, then the disk tier (promoting a
// disk hit into memory). A miss with a matching base key but different
// fault component is counted as a bypass.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, v, ok := c.lookupLocked(k)
	return clone(v), ok
}

// lookupLocked is the one counted lookup behind Get and
// GetOrComputeDecoded. On a hit it returns the stored bytes (not a
// copy: stored bytes are never mutated) and the memory-tier entry
// holding them, which is nil for a disk hit too large to keep in
// memory.
func (c *Cache) lookupLocked(k Key) (*entry, []byte, bool) {
	if el, ok := c.index[k.String()]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		e := el.Value.(*entry)
		return e, e.val, true
	}
	if c.disk != nil {
		if v, ok, dropped := c.disk.get(k); ok {
			c.stats.Hits++
			c.stats.DiskHits++
			return c.storeLocked(k, v), v, true
		} else if dropped > 0 {
			c.stats.DiskDrops += dropped
		}
	}
	if f, ok := c.faults[k.Base]; ok && f != k.Fault {
		c.stats.Bypasses++
	} else {
		c.stats.Misses++
	}
	return nil, nil, false
}

// Put stores value bytes under k in both tiers. The value is copied.
func (c *Cache) Put(k Key, v []byte) {
	if !k.Valid() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.index[k.String()]; ok {
		return // content-addressed: same key ⇒ same bytes, nothing to update
	}
	c.storeLocked(k, clone(v))
	if c.disk != nil {
		if err := c.disk.put(k, v); err != nil {
			// A failing disk tier degrades to memory-only, never errors.
			c.stats.DiskDrops++
			c.disk.close()
			c.disk = nil
		}
	}
}

// storeLocked inserts into the memory tier, evicts LRU entries until
// both capacity bounds hold, and returns the stored entry. An entry
// bigger than the byte bound would evict everything and still not
// fit; it is not pinned (nil is returned) and counted as oversize.
func (c *Cache) storeLocked(k Key, v []byte) *entry {
	if int64(len(v)) > c.maxBytes {
		c.faults[k.Base] = k.Fault
		c.stats.Oversize++
		return nil
	}
	if el, ok := c.index[k.String()]; ok {
		return el.Value.(*entry)
	}
	e := &entry{key: k, val: v}
	c.index[k.String()] = c.lru.PushFront(e)
	c.bytes += e.size()
	c.faults[k.Base] = k.Fault
	c.evictLocked()
	return e
}

// evictLocked drops entries from the cold end until both capacity
// bounds hold. A dropped entry takes its memoized value with it.
func (c *Cache) evictLocked() {
	for c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			break
		}
		e := c.lru.Remove(el).(*entry)
		delete(c.index, e.key.String())
		c.bytes -= e.size()
		c.stats.Evictions++
	}
}

// GetOrCompute returns the cached value for k, or runs compute exactly
// once per key across concurrent callers (singleflight) and caches its
// result. The second return reports whether the value came from the
// cache or a collapsed peer computation rather than this caller's own
// execution. Waiters whose own context is still live retry if the
// executing caller was cancelled, so one cancelled client cannot poison
// the flight for the others.
func (c *Cache) GetOrCompute(ctx context.Context, k Key, compute func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	if !k.Valid() {
		v, err := compute(ctx)
		return v, false, err
	}
	for {
		if v, ok := c.Get(k); ok {
			return v, true, nil
		}
		cl, leader := c.join(k)
		if leader {
			v, err := compute(ctx)
			c.finish(k, cl, v, err)
			return v, false, err
		}
		if retry, err := c.wait(ctx, cl); retry {
			continue
		} else if err != nil {
			return nil, false, err
		}
		return clone(cl.val), true, nil
	}
}

// GetOrComputeDecoded is GetOrCompute for callers that want a form
// derived from the value rather than its bytes. Its lookup moves the
// LRU and the counters exactly as GetOrCompute's does. A hit returns
// the entry's memo; the entry's first such hit runs decode and
// memoizes the result, which then lives and dies with the entry (a
// decode error is returned and nothing is memoized). A miss runs
// compute, which returns the value and the bytes to cache; that value
// is returned as is and never memoized, so one-off results hold no
// memo memory. A collapsed waiter decodes the executor's bytes.
//
// A memo may be anything decode derives from the bytes alone: a
// decoded struct, encodings of it served as they are, or both. decode
// reports the memo's size in bytes, which is charged against MaxBytes
// on top of the entry's own bytes while the memo is held; an entry
// whose bytes and memo together exceed MaxBytes is served but not
// memoized. Every caller of one key must pass the same decode, so an
// entry never holds two kinds of memo.
//
// Returned values are shared between callers: treat them as read-only.
func (c *Cache) GetOrComputeDecoded(ctx context.Context, k Key, decode func([]byte) (any, int64, error), compute func(context.Context) (any, []byte, error)) (any, bool, error) {
	if !k.Valid() {
		obj, _, err := compute(ctx)
		return obj, false, err
	}
	for {
		if obj, ok, err := c.getDecoded(k, decode); ok {
			if err != nil {
				return nil, false, err
			}
			return obj, true, nil
		}
		cl, leader := c.join(k)
		if leader {
			obj, v, err := compute(ctx)
			c.finish(k, cl, v, err)
			return obj, false, err
		}
		if retry, err := c.wait(ctx, cl); retry {
			continue
		} else if err != nil {
			return nil, false, err
		}
		obj, _, err := decode(cl.val)
		if err != nil {
			return nil, false, err
		}
		return obj, true, nil
	}
}

// getDecoded is GetOrComputeDecoded's lookup: counted as Get counts
// it, and on a hit the memoized value, or a fresh decode memoized on
// the entry. Decoding runs outside the lock, so concurrent first hits
// on one key may each decode; the first to finish is kept and shared.
func (c *Cache) getDecoded(k Key, decode func([]byte) (any, int64, error)) (any, bool, error) {
	c.mu.Lock()
	e, v, ok := c.lookupLocked(k)
	var memo any
	if e != nil {
		memo = e.memo
	}
	c.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	if memo != nil {
		return memo, true, nil
	}
	obj, size, err := decode(v)
	if err != nil {
		return nil, true, err
	}
	if e != nil {
		obj = c.memoize(e, obj, size)
	}
	return obj, true, nil
}

// memoize attaches obj to e, charged at size, and returns the value e
// now holds, which is another caller's if a concurrent hit got there
// first. An entry that has left the memory tier, or whose bytes and
// memo alone exceed MaxBytes, is not memoized.
func (c *Cache) memoize(e *entry, obj any, size int64) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.memo != nil {
		return e.memo
	}
	if el, ok := c.index[e.key.String()]; !ok || el.Value.(*entry) != e {
		return obj
	}
	if int64(len(e.val))+size > c.maxBytes {
		return obj
	}
	e.memo, e.memoSize = obj, size
	c.bytes += size
	c.evictLocked()
	return obj
}

// join attaches the caller to k's in-flight computation. The first
// caller becomes its leader (true) and must finish it; later callers
// get it to wait on and are counted as collapsed.
func (c *Cache) join(k Key) (*call, bool) {
	ks := k.String()
	c.fmu.Lock()
	if cl, ok := c.flight[ks]; ok {
		c.fmu.Unlock()
		c.mu.Lock()
		c.stats.Collapsed++
		c.mu.Unlock()
		return cl, false
	}
	cl := &call{done: make(chan struct{})}
	c.flight[ks] = cl
	c.fmu.Unlock()
	return cl, true
}

// finish publishes the leader's result: a success is cached, then the
// waiters are released.
func (c *Cache) finish(k Key, cl *call, v []byte, err error) {
	if err == nil {
		c.Put(k, v)
	}
	cl.val, cl.err = v, err
	c.fmu.Lock()
	delete(c.flight, k.String())
	c.fmu.Unlock()
	close(cl.done)
}

// wait blocks until cl finishes or ctx ends. retry reports that the
// leader was cancelled while this caller's context is still live, so
// the caller should look k up again rather than inherit the failure.
func (c *Cache) wait(ctx context.Context, cl *call) (retry bool, err error) {
	select {
	case <-cl.done:
		if cl.err == nil {
			return false, nil
		}
		if isContextErr(cl.err) && ctx.Err() == nil {
			return true, nil
		}
		return false, cl.err
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.bytes
	if c.disk != nil {
		s.DiskEntries = c.disk.entries()
	}
	return s
}

// Close releases the disk tier. The memory tier stays usable.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk != nil {
		err := c.disk.close()
		c.disk = nil
		return err
	}
	return nil
}

func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
