package spm

import (
	"errors"
	"fmt"
	"sort"

	"ftspm/internal/dram"
	"ftspm/internal/memtech"
	"ftspm/internal/program"
)

// Placement is the output of the mapping phase consumed by the
// controller: for each mapped block, the region kind it is allowed to
// occupy. Blocks absent from the placement are unmapped and served by the
// cache hierarchy.
type Placement map[program.BlockID]RegionKind

// Clone returns a copy of the placement.
func (p Placement) Clone() Placement {
	out := make(Placement, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// CountByKind returns how many blocks target each region kind.
func (p Placement) CountByKind() map[RegionKind]int {
	out := make(map[RegionKind]int)
	for _, k := range p {
		out[k]++
	}
	return out
}

// sortedIDs returns the placement's block IDs in ascending order, so
// validation walks (and therefore errors name) blocks deterministically
// instead of in map order.
func (p Placement) sortedIDs() []program.BlockID {
	ids := make([]program.BlockID, 0, len(p))
	for id := range p {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// numRegionKinds bounds the dense per-kind arrays (RegionKind values are
// small consecutive constants starting at 1).
const numRegionKinds = int(RegionDMR) + 1

// KindCounts tallies program accesses served by one region kind.
type KindCounts struct {
	Reads, Writes uint64
}

// Total returns reads + writes.
func (k KindCounts) Total() uint64 { return k.Reads + k.Writes }

// ControllerStats aggregates on-line phase activity.
type ControllerStats struct {
	// MapIns counts block transfers into the SPM.
	MapIns uint64
	// Evictions counts blocks displaced to make room.
	Evictions uint64
	// PlannedUnmaps counts blocks removed by explicit (scheduled)
	// unmap commands rather than capacity pressure.
	PlannedUnmaps uint64
	// WritebackWords counts dirty words returned to off-chip memory.
	WritebackWords uint64
	// TransferCycles accumulates DMA stall time.
	TransferCycles memtech.Cycles
	// PerKind tallies program accesses by serving region kind. The
	// controller accumulates these in a dense per-kind array; Stats()
	// materializes this map view.
	PerKind map[RegionKind]*KindCounts
	// Recovery counts the runtime error-recovery subsystem's activity
	// (all zero unless EnableRecovery was called, except the write-
	// verify counters, which a wear model feeds on its own).
	Recovery RecoveryStats
}

// Cost is the charged outcome of one controller access.
type Cost struct {
	// Cycles is the total stall: any DMA transfer plus the region
	// access.
	Cycles memtech.Cycles
	// Kind is the region kind that served the access.
	Kind RegionKind
	// MappedIn is true when the access triggered a block transfer.
	MappedIn bool
}

// Errors returned by the controller.
var (
	ErrBlockTooBig   = errors.New("spm: block larger than its target region")
	ErrNoSuchRegion  = errors.New("spm: placement targets a region kind absent from this SPM")
	ErrNotMapped     = errors.New("spm: block is not in the placement")
	ErrBadPlacement  = errors.New("spm: invalid placement")
	errNoAllocatable = errors.New("spm: internal: allocation failed after full eviction")
)

type interval struct{ start, n int }

type residency struct {
	live     bool
	region   int // region index within the SPM
	baseWord int
	words    int
	dirty    bool
	lastUse  uint64
}

// class returns the residency class (ScrubWord*) of the words res
// covers; a nil res is free space.
func (res *residency) class() byte {
	switch {
	case res == nil:
		return ScrubWordFree
	case res.dirty:
		return ScrubWordDirty
	default:
		return ScrubWordClean
	}
}

// Controller implements the on-line phase: it tracks which blocks are
// resident where, transfers blocks in on first touch (and back out on
// eviction, when dirty), and routes each program access to the region
// that holds the block. The paper inserts the transfer points statically
// at compile time; this controller triggers the same transfers on demand
// with least-recently-used eviction, which reproduces the transfer
// traffic of the static schedule for the profiled access sequences.
//
// All per-block state lives in dense slices indexed by program.BlockID
// (block IDs are compact indices into one program image), and the access
// path reuses controller-owned scratch buffers, so the steady-state hot
// path performs no map operations and no allocations (DESIGN.md §11).
type Controller struct {
	spm     *SPM
	mem     *dram.Memory
	regions []*Region       // dense region index → region (spm order)
	blocks  []program.Block // dense BlockID → block descriptor snapshot

	place    []RegionKind // dense BlockID → target kind, 0 = unmapped
	resident []residency  // dense BlockID → residency, live=false = absent
	free     [][]interval
	kindIdx  [numRegionKinds]int // kind → region index, -1 = absent
	tick     uint64
	stats    ControllerStats
	perKind  [numRegionKinds]KindCounts

	// writeBuf backs the value vectors of program writes and block
	// DMA-ins; oneWord backs single-word recovery rewrites. Both are
	// reused across calls — never retained past the region write that
	// consumes them.
	writeBuf []uint32
	oneWord  [1]uint32

	// Runtime error recovery (EnableRecovery): detection outcomes on
	// the access path trigger re-fetch/rollback, a background scrubber
	// walks the protected regions, and recurring write-verify faults
	// drive wear-aware graceful degradation.
	recovery    RecoveryConfig
	recoveryOn  bool
	faultCounts []int // dense BlockID → permanent-fault evidence
	sinceScrub  uint64

	// Adaptive storm defenses (RecoveryConfig.Adaptive): detection
	// events are tallied over tumbling windows and drive a scrub
	// escalation machine with hysteresis (recovery.go). adaptive is
	// nil when the defenses are disarmed — one nil check per access.
	adaptive        *AdaptiveConfig
	escalated       bool
	windowAccesses  uint64
	windowErrors    uint64
	stateWindows    int      // windows spent in the current state
	windowRegionErr []uint32 // dense region index → events this window
	windowBlockErr  []uint32 // dense BlockID → events this window

	// rec, when non-nil, observes every codeword-level operation so the
	// packed soak engine can replay this controller's trajectory
	// (recorder.go). One nil check per operation when detached.
	rec OpRecorder
}

// NewController validates the placement against the SPM geometry and
// returns a controller with an empty SPM. Validation walks the placement
// in ascending BlockID order, so which offending block an error names is
// deterministic.
func NewController(s *SPM, prog *program.Program, place Placement, mem *dram.Memory) (*Controller, error) {
	n := prog.NumBlocks()
	c := &Controller{
		spm:         s,
		mem:         mem,
		regions:     s.Regions(),
		blocks:      prog.Blocks(),
		place:       make([]RegionKind, n),
		resident:    make([]residency, n),
		free:        make([][]interval, s.NumRegions()),
		faultCounts: make([]int, n),
	}
	for i := range c.kindIdx {
		c.kindIdx[i] = -1
	}
	for i, r := range c.regions {
		c.free[i] = []interval{{start: 0, n: r.Words()}}
		if c.kindIdx[r.Kind()] < 0 {
			c.kindIdx[r.Kind()] = i
		}
	}
	for _, id := range place.sortedIDs() {
		kind := place[id]
		b, err := prog.Block(id)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPlacement, err)
		}
		idx := -1
		if int(kind) > 0 && int(kind) < numRegionKinds {
			idx = c.kindIdx[kind]
		}
		if idx < 0 {
			return nil, fmt.Errorf("%w: block %s -> %v", ErrNoSuchRegion, b.Name, kind)
		}
		r := c.regions[idx]
		if memtech.WordsIn(b.Size) > r.Words() {
			return nil, fmt.Errorf("%w: %s (%d B) -> %v (%d B)",
				ErrBlockTooBig, b.Name, b.Size, kind, r.SizeBytes())
		}
		c.place[id] = kind
	}
	return c, nil
}

// EnableRecovery switches on the runtime error-recovery subsystem:
// DUEs detected on the access path are re-fetched from the off-chip
// copy (clean blocks) or escalated per the dirty policy, a background
// scrubber walks the protected regions every ScrubInterval accesses,
// and blocks accumulating RemapThreshold write-verify faults migrate
// out of their failing region (graceful degradation). Call before the
// first access.
func (c *Controller) EnableRecovery(rc RecoveryConfig) error {
	if err := rc.Validate(); err != nil {
		return err
	}
	c.recovery = rc
	c.recoveryOn = true
	if rc.Adaptive != nil {
		a := *rc.Adaptive
		c.adaptive = &a
		c.windowRegionErr = make([]uint32, len(c.regions))
		c.windowBlockErr = make([]uint32, len(c.resident))
	}
	return nil
}

// Stats returns a copy of the controller counters; the PerKind map view
// is materialized from the dense per-kind tallies (kinds that served at
// least one access appear, matching the lazily-created map of earlier
// versions).
func (c *Controller) Stats() ControllerStats {
	out := c.stats
	out.PerKind = make(map[RegionKind]*KindCounts)
	for k := range c.perKind {
		if c.perKind[k].Reads+c.perKind[k].Writes > 0 {
			cp := c.perKind[k]
			out.PerKind[RegionKind(k)] = &cp
		}
	}
	return out
}

// Placement returns a copy of the active placement.
func (c *Controller) Placement() Placement {
	out := make(Placement)
	for id, kind := range c.place {
		if kind != 0 {
			out[program.BlockID(id)] = kind
		}
	}
	return out
}

// mappedKind returns the block's placement target, or 0 when the block
// is outside the placement (including IDs the controller never saw).
func (c *Controller) mappedKind(id program.BlockID) RegionKind {
	if id < 0 || int(id) >= len(c.place) {
		return 0
	}
	return c.place[id]
}

// IsMapped reports whether the block participates in the placement.
func (c *Controller) IsMapped(id program.BlockID) bool {
	return c.mappedKind(id) != 0
}

// IsResident reports whether the block currently occupies SPM space.
func (c *Controller) IsResident(id program.BlockID) bool {
	return id >= 0 && int(id) < len(c.resident) && c.resident[id].live
}

// values returns the controller's write scratch buffer sized to n words.
func (c *Controller) values(n int) []uint32 {
	if cap(c.writeBuf) < n {
		c.writeBuf = make([]uint32, n)
	}
	return c.writeBuf[:n]
}

// Access serves one program access to a mapped block: it transfers the
// block in if necessary and performs the region read/write. Offset and
// size select the touched words within the block. For unmapped blocks it
// returns ErrNotMapped; the simulator then uses the cache path.
func (c *Controller) Access(id program.BlockID, offset, size int, write bool) (Cost, error) {
	kind := c.mappedKind(id)
	if kind == 0 {
		return Cost{}, ErrNotMapped
	}
	c.tick++
	var recCycles memtech.Cycles
	if c.adaptive != nil {
		if c.windowAccesses >= c.adaptive.WindowAccesses {
			cyc, err := c.adaptiveWindowTick()
			if err != nil {
				return Cost{}, err
			}
			recCycles += cyc
			// The tick's storm bypass may have remapped — or demoted —
			// the very block being served; refresh the routing.
			if kind = c.mappedKind(id); kind == 0 {
				c.stats.Recovery.RecoveryCycles += recCycles
				return Cost{}, ErrNotMapped
			}
		}
		c.windowAccesses++
		if c.escalated {
			c.stats.Recovery.EscalatedAccesses++
		}
	}
	if c.recoveryOn && c.recovery.ScrubInterval > 0 {
		interval := c.recovery.ScrubInterval
		if c.escalated {
			interval = c.adaptive.EscalatedScrubInterval
		}
		c.sinceScrub++
		if c.sinceScrub >= interval {
			c.sinceScrub = 0
			cyc, err := c.runScrub()
			if err != nil {
				return Cost{}, err
			}
			recCycles += cyc
		}
	}
	res, transferCycles, err := c.ensureResident(id)
	if err != nil {
		if errors.Is(err, errNoAllocatable) && c.recoveryOn {
			// The region has degraded (retired words) below the block
			// size: demote the block to cache service. The caller sees
			// ErrNotMapped and routes this and all later accesses
			// through the cache hierarchy.
			c.place[id] = 0
			c.faultCounts[id] = 0
			c.stats.Recovery.Demotions++
			if c.stats.Recovery.FirstDegradedTick == 0 {
				c.stats.Recovery.FirstDegradedTick = c.tick
			}
			return Cost{}, ErrNotMapped
		}
		return Cost{}, err
	}
	res.lastUse = c.tick

	b := &c.blocks[id]
	if offset < 0 {
		offset = 0
	}
	if size < 1 {
		size = 1
	}
	if offset+size > b.Size {
		size = b.Size - offset
		if size < 1 {
			return Cost{}, fmt.Errorf("%w: offset %d outside %s", ErrOutOfRange, offset, b.Name)
		}
	}
	r := c.regions[res.region]
	wordIdx := res.baseWord + offset/memtech.WordBytes
	words := memtech.WordsIn(size)
	if wordIdx+words > res.baseWord+res.words {
		words = res.baseWord + res.words - wordIdx
	}

	var accessCycles memtech.Cycles
	if write {
		values := c.values(words)
		base := b.Addr + uint32(offset)
		for i := range values {
			values[i] = dram.Value(base/memtech.WordBytes + uint32(i))
		}
		if c.rec != nil {
			c.rec.RecordWrite(res.region, wordIdx, words, base/memtech.WordBytes)
		}
		var oc WriteOutcome
		accessCycles, oc, err = r.WriteChecked(wordIdx, values)
		res.dirty = true
		c.perKind[kind].Writes++
		if err == nil {
			c.noteWriteFaults(id, oc)
			if c.adaptive != nil && (oc.Retries > 0 || len(oc.Failed) > 0) {
				c.noteStormEvidence(res.region, id, uint32(oc.Retries+len(oc.Failed)))
			}
		}
	} else {
		if c.rec != nil {
			c.rec.RecordAccessRead(res.region, wordIdx, words, res.class())
		}
		var oc ReadOutcome
		_, accessCycles, oc, err = r.ReadChecked(wordIdx, words)
		c.perKind[kind].Reads++
		if err == nil {
			c.stats.Recovery.CorrectedOnAccess += uint64(oc.Corrected)
			if c.adaptive != nil && (oc.Corrected > 0 || len(oc.Detected) > 0) {
				c.noteStormEvidence(res.region, id, uint32(oc.Corrected+len(oc.Detected)))
			}
			for _, w := range oc.Detected {
				cyc, derr := c.recoverDUE(SiteAccess, r, id, res, w)
				if derr != nil {
					return Cost{}, derr
				}
				recCycles += cyc
			}
		}
	}
	if err != nil {
		return Cost{}, err
	}
	if c.recoveryOn && c.recovery.RemapThreshold > 0 &&
		c.faultCounts[id] >= c.recovery.RemapThreshold {
		cyc, derr := c.degrade(id)
		if derr != nil {
			return Cost{}, derr
		}
		recCycles += cyc
	}
	c.stats.Recovery.RecoveryCycles += recCycles
	return Cost{
		Cycles:   transferCycles + accessCycles + recCycles,
		Kind:     kind,
		MappedIn: transferCycles > 0,
	}, nil
}

// noteWriteFaults folds one write-verify outcome into the recovery
// accounting: retries are transient (already charged by the region),
// failed words are permanent-fault evidence against the block.
func (c *Controller) noteWriteFaults(id program.BlockID, oc WriteOutcome) {
	if c.rec != nil && (oc.Retries > 0 || len(oc.Failed) > 0) {
		c.rec.RecordUnsupported("write-verify fault")
	}
	c.stats.Recovery.WriteRetries += uint64(oc.Retries)
	if len(oc.Failed) > 0 {
		c.stats.Recovery.StuckWordEvents += uint64(len(oc.Failed))
		c.faultCounts[id] += len(oc.Failed)
	}
}

// noteStormEvidence tallies detection events (ECC corrections,
// detected DUEs, write-verify faults) into the adaptive window,
// attributed to the region and block they surfaced in. Only called
// with c.adaptive armed.
func (c *Controller) noteStormEvidence(regionIdx int, id program.BlockID, n uint32) {
	c.windowErrors += uint64(n)
	c.windowRegionErr[regionIdx] += n
	if id >= 0 && int(id) < len(c.windowBlockErr) {
		c.windowBlockErr[id] += n
	}
}

// adaptiveWindowTick closes one adaptive window: it evaluates the
// detection rate against the escalation thresholds (recovery.go state
// machine), fires the escalation responses (emergency refresh, storm
// bypass), and opens the next window. Response cycles are returned so
// the triggering access is charged like any other recovery action.
func (c *Controller) adaptiveWindowTick() (memtech.Cycles, error) {
	a := c.adaptive
	rate := float64(c.windowErrors) / float64(c.windowAccesses)
	if rate > c.stats.Recovery.PeakWindowErrorRate {
		c.stats.Recovery.PeakWindowErrorRate = rate
	}
	c.stateWindows++
	var cycles memtech.Cycles
	switch {
	case !c.escalated && rate >= a.EscalateRate:
		c.escalated = true
		c.stateWindows = 0
		c.stats.Recovery.ScrubEscalations++
		if a.EmergencyRefresh {
			cyc, err := c.emergencyRefresh()
			if err != nil {
				return 0, err
			}
			cycles += cyc
		}
	case c.escalated && rate <= a.DeescalateRate && c.stateWindows >= a.MinDwellWindows:
		c.escalated = false
		c.stateWindows = 0
		c.stats.Recovery.ScrubDeescalations++
	}
	if c.escalated && a.BypassRate > 0 && rate >= a.BypassRate {
		if id, ok := c.mostAfflictedBlock(); ok {
			cyc, err := c.degrade(id)
			if err != nil {
				return 0, err
			}
			cycles += cyc
			c.stats.Recovery.StormBypasses++
		}
	}
	c.windowAccesses, c.windowErrors = 0, 0
	clear(c.windowRegionErr)
	clear(c.windowBlockErr)
	return cycles, nil
}

// mostAfflictedBlock returns the resident block with the most
// detection events this window (lowest BlockID on ties).
func (c *Controller) mostAfflictedBlock() (program.BlockID, bool) {
	best, bestErrs := program.BlockID(0), uint32(0)
	for i, n := range c.windowBlockErr {
		if n > bestErrs && c.resident[i].live {
			best, bestErrs = program.BlockID(i), n
		}
	}
	return best, bestErrs > 0
}

// emergencyRefresh re-fetches every clean resident block in the
// regions that saw detection events this window, flushing latent
// corruption the storm has deposited before further strikes can
// accumulate past the code's correction capability. Each block is one
// DRAM burst plus a checked region rewrite, charged to the caller.
// Dirty blocks are left to the DUE policy (their only up-to-date copy
// is on-chip), as are immune/unprotected regions (no detection events
// ever attribute to them).
func (c *Controller) emergencyRefresh() (memtech.Cycles, error) {
	if c.rec != nil {
		c.rec.RecordUnsupported("emergency refresh")
	}
	var cycles memtech.Cycles
	for i := range c.resident {
		res := &c.resident[i]
		if !res.live || res.dirty || c.windowRegionErr[res.region] == 0 {
			continue
		}
		r := c.regions[res.region]
		b := &c.blocks[i]
		dramCycles, _ := c.mem.Burst(res.words, false)
		values := c.values(res.words)
		for k := range values {
			values[k] = dram.Value(b.Addr/memtech.WordBytes + uint32(k))
		}
		writeCycles, oc, err := r.WriteChecked(res.baseWord, values)
		if err != nil {
			return 0, err
		}
		cycles += maxCycles(dramCycles, writeCycles)
		c.stats.Recovery.EmergencyRefreshBlocks++
		c.stats.Recovery.EmergencyRefreshWords += uint64(res.words)
		c.noteWriteFaults(program.BlockID(i), oc)
	}
	return cycles, nil
}

// MapIn executes a scheduled map-in command (the paper's SMI): the
// block is transferred into its target region now, ahead of its first
// access. Already-resident blocks are a no-op. Space is made with the
// same LRU fallback the on-demand path uses, but a well-formed schedule
// issues its Unmap commands first, so the fallback stays idle.
func (c *Controller) MapIn(id program.BlockID) (memtech.Cycles, error) {
	if c.mappedKind(id) == 0 {
		return 0, ErrNotMapped
	}
	c.tick++
	res, cycles, err := c.ensureResident(id)
	if err != nil {
		return 0, err
	}
	res.lastUse = c.tick
	return cycles, nil
}

// Unmap executes a scheduled unmap command: the block leaves the SPM
// now, writing dirty contents back off-chip. Non-resident blocks are a
// no-op.
func (c *Controller) Unmap(id program.BlockID) (memtech.Cycles, error) {
	if !c.IsResident(id) {
		return 0, nil
	}
	res := &c.resident[id]
	r := c.regions[res.region]
	var cycles memtech.Cycles
	if res.dirty {
		if c.rec != nil {
			c.rec.RecordEvictRead(res.region, res.baseWord, res.words)
		}
		_, readCycles, err := r.Read(res.baseWord, res.words)
		if err != nil {
			return 0, err
		}
		dramCycles, _ := c.mem.Burst(res.words, true)
		cycles = maxCycles(readCycles, dramCycles)
		c.stats.WritebackWords += uint64(res.words)
	}
	c.releaseInterval(res.region, interval{start: res.baseWord, n: res.words}, r)
	res.live = false
	c.stats.PlannedUnmaps++
	c.stats.TransferCycles += cycles
	return cycles, nil
}

// ensureResident maps the block in if needed, evicting least-recently-
// used blocks from the target region until space is available. The
// returned cycles charge the DMA stall (off-chip burst overlapped with
// the region-side burst: the slower of the two dominates).
func (c *Controller) ensureResident(id program.BlockID) (*residency, memtech.Cycles, error) {
	res := &c.resident[id]
	if res.live {
		return res, 0, nil
	}
	regionIdx := c.kindIdx[c.place[id]]
	b := &c.blocks[id]
	words := memtech.WordsIn(b.Size)

	var cycles memtech.Cycles
	base, evictCycles, err := c.allocate(regionIdx, words)
	if err != nil {
		return nil, 0, err
	}
	cycles += evictCycles

	// DMA the block in: off-chip read burst overlapped with the
	// region-side write burst.
	r := c.regions[regionIdx]
	dramCycles, _ := c.mem.Burst(words, false)
	values := c.values(words)
	for i := range values {
		values[i] = dram.Value(b.Addr/memtech.WordBytes + uint32(i))
	}
	if c.rec != nil {
		c.rec.RecordWrite(regionIdx, base, words, b.Addr/memtech.WordBytes)
	}
	regionCycles, oc, err := r.WriteChecked(base, values)
	if err != nil {
		return nil, 0, err
	}
	cycles += maxCycles(dramCycles, regionCycles)

	*res = residency{live: true, region: regionIdx, baseWord: base, words: words, lastUse: c.tick}
	c.stats.MapIns++
	c.stats.TransferCycles += cycles
	// Write-verify failures during the DMA-in are fault evidence too:
	// a block freshly mapped onto worn cells should migrate before its
	// silent corruption is consumed.
	c.noteWriteFaults(id, oc)
	return res, cycles, nil
}

// allocate finds a first-fit run of words in the region, evicting LRU
// residents until one exists.
func (c *Controller) allocate(regionIdx, words int) (int, memtech.Cycles, error) {
	var cycles memtech.Cycles
	for {
		if base, ok := c.takeInterval(regionIdx, words); ok {
			return base, cycles, nil
		}
		evicted, evictionCycles, err := c.evictLRU(regionIdx)
		if err != nil {
			return 0, 0, err
		}
		if !evicted {
			return 0, 0, errNoAllocatable
		}
		cycles += evictionCycles
	}
}

func (c *Controller) takeInterval(regionIdx, words int) (int, bool) {
	frees := c.free[regionIdx]
	for i, iv := range frees {
		if iv.n >= words {
			base := iv.start
			if iv.n == words {
				c.free[regionIdx] = append(frees[:i], frees[i+1:]...)
			} else {
				frees[i] = interval{start: iv.start + words, n: iv.n - words}
			}
			return base, true
		}
	}
	return 0, false
}

// evictLRU displaces the least-recently-used resident of the region,
// writing dirty contents back off-chip. It returns false when the region
// holds no residents. Residencies are scanned in BlockID order; lastUse
// ticks are unique (one block is touched per tick), so the victim choice
// is deterministic.
func (c *Controller) evictLRU(regionIdx int) (bool, memtech.Cycles, error) {
	var victim program.BlockID
	var vres *residency
	for i := range c.resident {
		res := &c.resident[i]
		if !res.live || res.region != regionIdx {
			continue
		}
		if vres == nil || res.lastUse < vres.lastUse {
			victim, vres = program.BlockID(i), res
		}
	}
	if vres == nil {
		return false, 0, nil
	}
	r := c.regions[regionIdx]
	var cycles memtech.Cycles
	if vres.dirty {
		if c.rec != nil {
			c.rec.RecordEvictRead(regionIdx, vres.baseWord, vres.words)
		}
		_, readCycles, err := r.Read(vres.baseWord, vres.words)
		if err != nil {
			return false, 0, err
		}
		dramCycles, _ := c.mem.Burst(vres.words, true)
		cycles = maxCycles(readCycles, dramCycles)
		c.stats.WritebackWords += uint64(vres.words)
	}
	c.releaseInterval(regionIdx, interval{start: vres.baseWord, n: vres.words}, r)
	c.resident[victim].live = false
	c.stats.Evictions++
	c.stats.TransferCycles += cycles
	return true, cycles, nil
}

// recoverDUE runs the recovery policy on one detected-uncorrectable
// word w of region r, found at site: res is the residency covering the
// word (nil for free space) and id its block. It performs the recovery
// traffic (DRAM bursts, region rewrites, verify reads), bumps the
// site's counter and returns the action's charge (policy.go).
func (c *Controller) recoverDUE(site DUESite, r *Region, id program.BlockID, res *residency, w int) (memtech.Cycles, error) {
	act := RecoverNone
	if c.recoveryOn {
		act = c.recovery.DUEAction(res.class())
	}
	repaired := true
	var err error
	switch act {
	case RecoverRefetch:
		repaired, err = c.refetchWord(r, res, c.blocks[id].Addr, w)
	case RecoverRollback, RecoverRestore:
		err = r.RestoreWord(w)
	}
	if err != nil {
		return 0, err
	}
	*c.stats.Recovery.DUECounter(site, act, repaired)++
	return c.recovery.DUECharge(r.RecoveryCharges(c.mem.Config()), act, repaired), nil
}

// refetchWord re-fetches one word of a clean block from the off-chip
// image, rewrites it, and verifies the rewrite, retrying up to the
// configured bound. It reports whether the word decodes cleanly
// afterwards.
func (c *Controller) refetchWord(r *Region, res *residency, blockAddr uint32, w int) (bool, error) {
	c.oneWord[0] = dram.Value(blockAddr/memtech.WordBytes + uint32(w-res.baseWord))
	for attempt := 0; ; attempt++ {
		c.mem.Burst(1, false)
		if _, _, err := r.WriteChecked(w, c.oneWord[:]); err != nil {
			return false, err
		}
		_, _, oc, err := r.ReadChecked(w, 1)
		if err != nil {
			return false, err
		}
		if len(oc.Detected) == 0 {
			return true, nil
		}
		if attempt >= c.recovery.MaxRefetchRetries {
			return false, nil
		}
		c.stats.Recovery.RefetchRetries++
	}
}

// runScrub walks every protected region, repairing correctable latent
// errors in place and handing each detected-uncorrectable word to the
// recovery policy before a second strike can pair with it.
func (c *Controller) runScrub() (memtech.Cycles, error) {
	if c.rec != nil {
		c.rec.RecordScrub(c.scrubClasses())
	}
	st := &c.stats.Recovery
	st.ScrubRuns++
	var cycles memtech.Cycles
	for idx, r := range c.regions {
		if r.Kind().Protection() == memtech.Unprotected {
			continue // nothing to check: no code to scrub against
		}
		repaired, detected, cyc := r.ScrubWords()
		st.ScrubRepairs += uint64(repaired)
		cycles += cyc
		for _, w := range detected {
			id, res := c.residentAt(idx, w)
			rcyc, err := c.recoverDUE(SiteScrub, r, id, res, w)
			if err != nil {
				return 0, err
			}
			cycles += rcyc
		}
	}
	return cycles, nil
}

// residentAt returns the block whose residency covers the given word of
// the region, or a nil residency when the word is free.
func (c *Controller) residentAt(regionIdx, word int) (program.BlockID, *residency) {
	for i := range c.resident {
		res := &c.resident[i]
		if res.live && res.region == regionIdx && word >= res.baseWord && word < res.baseWord+res.words {
			return program.BlockID(i), res
		}
	}
	return 0, nil
}

// degrade migrates a block with recurring permanent faults out of its
// failing region into the next region in configuration order (regions
// are configured in falling reliability order, so degradation walks
// toward cheaper protection). Words holding stuck cells are retired on
// the way out. When no region can take the block, it is demoted to
// cache service. Migration reads the intended content (the recovered
// data, not the corrupt cells) and charges the source read, the
// destination write, and any eviction the allocation needs.
func (c *Controller) degrade(id program.BlockID) (memtech.Cycles, error) {
	if c.rec != nil {
		c.rec.RecordUnsupported("graceful degradation")
	}
	if !c.IsResident(id) {
		c.faultCounts[id] = 0
		return 0, nil
	}
	res := &c.resident[id]
	oldIdx := res.region
	oldR := c.regions[oldIdx]
	values, drainCycles, err := oldR.DrainWords(res.baseWord, res.words)
	if err != nil {
		return 0, err
	}

	defer func() {
		c.faultCounts[id] = 0
		if c.stats.Recovery.FirstDegradedTick == 0 {
			c.stats.Recovery.FirstDegradedTick = c.tick
		}
	}()

	for destIdx := oldIdx + 1; destIdx < len(c.regions); destIdx++ {
		destR := c.regions[destIdx]
		if res.words > destR.Words() {
			continue
		}
		base, evictCycles, err := c.allocate(destIdx, res.words)
		if errors.Is(err, errNoAllocatable) {
			continue // this region has degraded too far; try the next
		}
		if err != nil {
			return 0, err
		}
		writeCycles, oc, err := destR.WriteChecked(base, values)
		if err != nil {
			return 0, err
		}
		c.releaseInterval(oldIdx, interval{start: res.baseWord, n: res.words}, oldR)
		res.region = destIdx
		res.baseWord = base
		res.lastUse = c.tick
		c.place[id] = destR.Kind()
		c.stats.Recovery.Remaps++
		// The destination may be failing too (wear in an STT fallback):
		// start its fault account with the migration's own verify
		// failures.
		if len(oc.Failed) > 0 {
			c.stats.Recovery.StuckWordEvents += uint64(len(oc.Failed))
			c.faultCounts[id] = len(oc.Failed)
		}
		return evictCycles + maxCycles(drainCycles, writeCycles), nil
	}

	// No fallback region fits: demote to cache service, writing dirty
	// content back off-chip first.
	var wbCycles memtech.Cycles
	if res.dirty {
		dramCycles, _ := c.mem.Burst(res.words, true)
		wbCycles = maxCycles(drainCycles, dramCycles)
		c.stats.WritebackWords += uint64(res.words)
	}
	c.releaseInterval(oldIdx, interval{start: res.baseWord, n: res.words}, oldR)
	res.live = false
	c.place[id] = 0
	c.stats.Recovery.Demotions++
	return wbCycles, nil
}

// releaseInterval frees a residency's words. With recovery enabled,
// words holding stuck cells are retired — withheld from the free list
// forever — so no future block lands on known-bad cells; the remainder
// is returned in maximal runs.
func (c *Controller) releaseInterval(regionIdx int, iv interval, r *Region) {
	if !c.recoveryOn || r == nil {
		c.returnInterval(regionIdx, iv)
		return
	}
	run := interval{start: iv.start}
	for w := iv.start; w < iv.start+iv.n; w++ {
		if r.WordHasStuck(w) {
			if run.n > 0 {
				c.returnInterval(regionIdx, run)
			}
			// Errors are impossible here: w is in range by construction.
			_ = r.RetireWord(w)
			c.stats.Recovery.RetiredWords++
			run = interval{start: w + 1}
		} else {
			run.n++
		}
	}
	if run.n > 0 {
		c.returnInterval(regionIdx, run)
	}
}

// returnInterval merges a freed run back into the region's free list.
func (c *Controller) returnInterval(regionIdx int, iv interval) {
	frees := c.free[regionIdx]
	pos := len(frees)
	for i, f := range frees {
		if f.start > iv.start {
			pos = i
			break
		}
	}
	frees = append(frees, interval{})
	copy(frees[pos+1:], frees[pos:])
	frees[pos] = iv
	// Merge neighbours.
	merged := frees[:0]
	for _, f := range frees {
		if n := len(merged); n > 0 && merged[n-1].start+merged[n-1].n == f.start {
			merged[n-1].n += f.n
		} else {
			merged = append(merged, f)
		}
	}
	c.free[regionIdx] = merged
}

func maxCycles(a, b memtech.Cycles) memtech.Cycles {
	if a > b {
		return a
	}
	return b
}
