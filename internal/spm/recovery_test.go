package spm

import (
	"errors"
	"math/rand"
	"testing"

	"ftspm/internal/dram"
	"ftspm/internal/memtech"
	"ftspm/internal/program"
)

// recoveryFixture is ctlFixture with the recovery subsystem enabled.
func recoveryFixture(t *testing.T, rc RecoveryConfig) (*Controller, *program.Program, map[string]program.BlockID) {
	t.Helper()
	ctl, p, ids := ctlFixture(t)
	if err := ctl.EnableRecovery(rc); err != nil {
		t.Fatal(err)
	}
	return ctl, p, ids
}

// checkSpaceInvariant asserts that every word of the region is exactly
// one of: free, resident, or retired — the allocator's conservation law
// under eviction, retirement, and remapping.
func checkSpaceInvariant(t *testing.T, ctl *Controller, regionIdx int) {
	t.Helper()
	r, err := ctl.spm.Region(regionIdx)
	if err != nil {
		t.Fatal(err)
	}
	free := 0
	for _, iv := range ctl.free[regionIdx] {
		free += iv.n
	}
	resident := 0
	for _, res := range ctl.resident {
		if res.live && res.region == regionIdx {
			resident += res.words
		}
	}
	if total := free + resident + r.RetiredWordCount(); total != r.Words() {
		t.Errorf("region %d space leak: free %d + resident %d + retired %d != %d",
			regionIdx, free, resident, r.RetiredWordCount(), r.Words())
	}
}

func TestRecoveryConfigValidation(t *testing.T) {
	if err := (RecoveryConfig{}).Validate(); err == nil {
		t.Error("zero config accepted (no DUE policy)")
	}
	bad := DefaultRecovery()
	bad.MaxRefetchRetries = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative retries accepted")
	}
	ctl, _, _ := ctlFixture(t)
	if err := ctl.EnableRecovery(RecoveryConfig{}); err == nil {
		t.Error("EnableRecovery accepted invalid config")
	}
	if err := (WearConfig{WriteFailProb: 1.5}).Validate(); err == nil {
		t.Error("out-of-range WriteFailProb accepted")
	}
}

func TestRefetchRecoversCleanParityDUE(t *testing.T) {
	// Acceptance (b): a parity DUE in a clean block is recovered by a
	// DRAM re-fetch, with nonzero cycles and energy charged.
	rc := DefaultRecovery()
	rc.ScrubInterval = 0 // isolate the on-access path
	ctl, _, ids := recoveryFixture(t, rc)
	stack := ids["Stack"]

	// Map the block in clean, then land a single-bit strike on its
	// first word: parity always detects odd flip counts.
	if _, err := ctl.Access(stack, 0, 4, false); err != nil {
		t.Fatal(err)
	}
	r, ok := ctl.spm.RegionByKind(RegionParity)
	if !ok {
		t.Fatal("no parity region")
	}
	res := ctl.resident[stack]
	if flipped, err := r.InjectStrike(rand.New(rand.NewSource(9)), res.baseWord, 1); err != nil || !flipped {
		t.Fatalf("strike: flipped=%v err=%v", flipped, err)
	}
	energyBefore := r.Stats().Energy
	dramReadsBefore := ctl.mem.Stats().WordsRead

	cost, err := ctl.Access(stack, 0, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats().Recovery
	if st.RefetchedWords != 1 {
		t.Fatalf("RefetchedWords = %d, want 1 (stats %+v)", st.RefetchedWords, st)
	}
	if st.UnrecoveredDUEs != 0 || st.Rollbacks != 0 {
		t.Errorf("clean-block DUE escalated: %+v", st)
	}
	// The recovery is charged: re-fetch burst + rewrite + verify on top
	// of the 1-cycle parity read.
	if st.RecoveryCycles == 0 || cost.Cycles <= 1 {
		t.Errorf("recovery free of charge: cycles=%d recovery=%d", cost.Cycles, st.RecoveryCycles)
	}
	if r.Stats().Energy <= energyBefore {
		t.Error("recovery charged no region energy")
	}
	if ctl.mem.Stats().WordsRead <= dramReadsBefore {
		t.Error("recovery read nothing from DRAM")
	}
	// The word is actually repaired: the next read is silent and clean.
	detBefore := r.Stats().DetectedErrors
	if _, err := ctl.Access(stack, 0, 4, false); err != nil {
		t.Fatal(err)
	}
	if r.Stats().DetectedErrors != detBefore {
		t.Error("word still corrupt after re-fetch")
	}
	if r.Stats().SilentReads != 0 {
		t.Error("re-fetched word returned wrong data")
	}
}

func TestRefetchDefeatedByStuckCellChargesEveryAttempt(t *testing.T) {
	// A stuck cell defeats every re-fetch attempt alike: the word stays
	// a DUE after 1+MaxRefetchRetries attempts, each charged one
	// WordCharges.Refetch (the charge DUECharge gives a failed re-fetch).
	rc := DefaultRecovery()
	rc.ScrubInterval = 0
	rc.RemapThreshold = 0
	ctl, p, ids := recoveryFixture(t, rc)
	stack := ids["Stack"]
	b, err := p.Block(stack)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := ctl.spm.RegionByKind(RegionParity)
	// Stack maps first, at word 0 of the empty parity region.
	stickWord(t, r, 0, b.Addr/4)
	if _, err := ctl.Access(stack, 0, 4, false); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats().Recovery
	if st.UnrecoveredDUEs != 1 || st.RefetchedWords != 0 || st.RefetchRetries != uint64(rc.MaxRefetchRetries) {
		t.Fatalf("stuck-cell re-fetch: %+v", st)
	}
	attempts := memtech.Cycles(1 + rc.MaxRefetchRetries)
	if want := attempts * r.RecoveryCharges(ctl.mem.Config()).Refetch; st.RecoveryCycles != want {
		t.Errorf("RecoveryCycles = %d, want %d", st.RecoveryCycles, want)
	}
}

func TestDirtyDUEPolicies(t *testing.T) {
	strike := func(t *testing.T, ctl *Controller, id program.BlockID) *Region {
		t.Helper()
		// Dirty the block, then corrupt the written word.
		if _, err := ctl.Access(id, 0, 4, true); err != nil {
			t.Fatal(err)
		}
		r, ok := ctl.spm.RegionByKind(RegionParity)
		if !ok {
			t.Fatal("no parity region")
		}
		res := ctl.resident[id]
		if _, err := r.InjectStrike(rand.New(rand.NewSource(3)), res.baseWord, 1); err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("rollback", func(t *testing.T) {
		rc := DefaultRecovery()
		rc.ScrubInterval = 0
		rc.RollbackCycles = 700
		ctl, _, ids := recoveryFixture(t, rc)
		r := strike(t, ctl, ids["Stack"])
		cost, err := ctl.Access(ids["Stack"], 0, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		st := ctl.Stats().Recovery
		if st.Rollbacks != 1 || st.RefetchedWords != 0 {
			t.Errorf("dirty DUE not rolled back: %+v", st)
		}
		if cost.Cycles < 700 {
			t.Errorf("rollback penalty not charged: %d cycles", cost.Cycles)
		}
		// Restored from the checkpoint image: clean on the next read.
		detBefore := r.Stats().DetectedErrors
		if _, err := ctl.Access(ids["Stack"], 0, 4, false); err != nil {
			t.Fatal(err)
		}
		if r.Stats().DetectedErrors != detBefore {
			t.Error("word still corrupt after rollback")
		}
	})

	t.Run("sdc", func(t *testing.T) {
		rc := DefaultRecovery()
		rc.ScrubInterval = 0
		rc.DirtyPolicy = DUEAsSDC
		ctl, _, ids := recoveryFixture(t, rc)
		strike(t, ctl, ids["Stack"])
		if _, err := ctl.Access(ids["Stack"], 0, 4, false); err != nil {
			t.Fatal(err)
		}
		st := ctl.Stats().Recovery
		if st.SDCEscalations != 1 || st.Rollbacks != 0 {
			t.Errorf("dirty DUE not escalated: %+v", st)
		}
	})
}

func TestRecoveryOffCountsUnrecovered(t *testing.T) {
	ctl, _, ids := ctlFixture(t) // recovery NOT enabled
	if _, err := ctl.Access(ids["Stack"], 0, 4, false); err != nil {
		t.Fatal(err)
	}
	r, _ := ctl.spm.RegionByKind(RegionParity)
	if _, err := r.InjectStrike(rand.New(rand.NewSource(5)), ctl.resident[ids["Stack"]].baseWord, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Access(ids["Stack"], 0, 4, false); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats().Recovery
	if st.UnrecoveredDUEs != 1 || st.RefetchedWords != 0 {
		t.Errorf("detection-only baseline mis-counted: %+v", st)
	}
}

func TestScrubberClearsLatentFreeSpaceError(t *testing.T) {
	// A strike on a free (unallocated) parity word is invisible to the
	// access path; only the background scrubber can clear it before a
	// later allocation consumes it.
	rc := DefaultRecovery()
	rc.ScrubInterval = 3
	ctl, _, ids := recoveryFixture(t, rc)
	r, _ := ctl.spm.RegionByKind(RegionParity)
	// Stack will occupy words 0..63; word 100 stays free.
	if _, err := r.InjectStrike(rand.New(rand.NewSource(8)), 100, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ctl.Access(ids["Stack"], 0, 4, false); err != nil {
			t.Fatal(err)
		}
	}
	st := ctl.Stats().Recovery
	if st.ScrubRuns == 0 {
		t.Fatal("scrubber never ran")
	}
	if st.ScrubRestores == 0 {
		t.Errorf("latent free-space error not restored: %+v", st)
	}
	if got := r.Audit(); got.DUE != 0 {
		t.Errorf("latent DUE survived scrubbing: %+v", got)
	}
}

// stickWord freezes one cell of the region word at the inverse of the
// bit the off-chip image will drive there, guaranteeing a write-verify
// failure on the next DMA-in of that word.
func stickWord(t *testing.T, r *Region, wordIdx int, imageWordAddr uint32) {
	t.Helper()
	want := dram.Value(imageWordAddr)
	if err := r.InjectStuckAt(wordIdx, 0, want&1 == 0); err != nil {
		t.Fatal(err)
	}
}

func TestStuckRegionTriggersRemapDegradedButCorrect(t *testing.T) {
	// Acceptance (c): a block mapped onto stuck STT-RAM cells migrates
	// to the next region in config order and the run continues with
	// correct data.
	rc := DefaultRecovery()
	rc.ScrubInterval = 0
	rc.RemapThreshold = 1
	ctl, p, ids := recoveryFixture(t, rc)
	hot := ids["Hot"]
	b, err := p.Block(hot)
	if err != nil {
		t.Fatal(err)
	}
	sttR, _ := ctl.spm.RegionByKind(RegionSTT)
	// Hot maps first, at word 0 of the empty STT region.
	stickWord(t, sttR, 0, b.Addr/4)

	cost, err := ctl.Access(hot, 0, 4, false)
	if err != nil {
		t.Fatalf("access during remap: %v", err)
	}
	st := ctl.Stats().Recovery
	if st.StuckWordEvents == 0 {
		t.Fatal("write-verify failure not observed")
	}
	if st.Remaps != 1 || st.Demotions != 0 {
		t.Fatalf("block did not remap: %+v", st)
	}
	if st.RetiredWords == 0 {
		t.Error("stuck word not retired from the failing region")
	}
	if st.FirstDegradedTick == 0 {
		t.Error("time-to-degraded not recorded")
	}
	if cost.Cycles == 0 {
		t.Error("migration was free")
	}
	if ctl.Placement()[hot] != RegionECC {
		t.Errorf("placement after remap = %v, want SRAM(ECC)", ctl.Placement()[hot])
	}
	// Degraded but correct: the relocated block serves the off-chip
	// image from the fallback region.
	cost, err = ctl.Access(hot, 0, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Kind != RegionECC {
		t.Errorf("served by %v after remap", cost.Kind)
	}
	eccR, _ := ctl.spm.RegionByKind(RegionECC)
	res := ctl.resident[hot]
	got, _, err := eccR.Read(res.baseWord, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := dram.Value(b.Addr / 4); got[0] != want {
		t.Errorf("relocated word = %#x, want %#x", got[0], want)
	}
	if eccR.Stats().SilentReads != 0 {
		t.Error("relocated block read corrupt data")
	}
	checkSpaceInvariant(t, ctl, 0)
	checkSpaceInvariant(t, ctl, 1)
}

func TestEvictUnderPressureRetiresAndRefits(t *testing.T) {
	// Fragmentation edge case: evicting a victim whose interval holds a
	// stuck cell retires that word, splitting the freed run. The next
	// allocation must first-fit around the hole and the space
	// accounting must stay conserved.
	rc := DefaultRecovery()
	rc.ScrubInterval = 0
	rc.RemapThreshold = 0 // no remapping: isolate the eviction path
	ctl, p, ids := recoveryFixture(t, rc)
	sttR, _ := ctl.spm.RegionByKind(RegionSTT)

	// Fill the 512-word STT region: Hot at 0..255, Hot2 at 256..511.
	if _, err := ctl.Access(ids["Hot"], 0, 4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Access(ids["Hot2"], 0, 4, false); err != nil {
		t.Fatal(err)
	}
	// A cell in the middle of Hot's interval wears out while resident.
	b, err := p.Block(ids["Hot"])
	if err != nil {
		t.Fatal(err)
	}
	stickWord(t, sttR, 100, b.Addr/4+100)
	// Touch Hot2 so Hot is LRU, then map Hot3 (128 words): Hot is
	// evicted under pressure and word 100 is retired on the way out.
	if _, err := ctl.Access(ids["Hot2"], 0, 4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Access(ids["Hot3"], 0, 4, false); err != nil {
		t.Fatal(err)
	}
	if ctl.IsResident(ids["Hot"]) {
		t.Fatal("LRU victim still resident")
	}
	if !ctl.IsResident(ids["Hot3"]) {
		t.Fatal("Hot3 not resident after eviction")
	}
	st := ctl.Stats().Recovery
	if st.RetiredWords != 1 || !sttR.IsRetired(100) {
		t.Errorf("stuck word not retired on eviction: %+v", st)
	}
	// Hot3 must have landed clear of the retired hole: first fit is
	// words 0..99 (the run before the hole is 100 words short of Hot's
	// old 256, but Hot3 needs only 128 → it lands at 101).
	res := ctl.resident[ids["Hot3"]]
	if res.baseWord <= 100 && res.baseWord+res.words > 100 {
		t.Errorf("Hot3 allocated across retired word: base %d + %d words", res.baseWord, res.words)
	}
	checkSpaceInvariant(t, ctl, 0)

	// Re-mapping Hot (256 words) still fits in the fragmented region
	// once Hot3's run and the leading fragment cannot hold it: it must
	// evict again rather than corrupt the free list.
	if _, err := ctl.Access(ids["Hot"], 0, 4, false); err != nil {
		t.Fatal(err)
	}
	checkSpaceInvariant(t, ctl, 0)
}

func TestDemoteWhenNoRegionFits(t *testing.T) {
	// Single-region SPM: a degrading block has no fallback region and
	// must be demoted to cache service; the access reports ErrNotMapped
	// and later accesses see the block unmapped.
	s, err := New(0, RegionConfig{Kind: RegionSTT, SizeBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	p := program.New("demote")
	a := p.MustAddBlock("A", program.DataBlock, 256)
	bb := p.MustAddBlock("B", program.DataBlock, 256)
	mem, err := dram.New(dram.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(s, p, Placement{a: RegionSTT, bb: RegionSTT}, mem)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRecovery()
	rc.ScrubInterval = 0
	rc.RemapThreshold = 1
	if err := ctl.EnableRecovery(rc); err != nil {
		t.Fatal(err)
	}
	blkA, err := p.Block(a)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := s.Region(0)
	if err != nil {
		t.Fatal(err)
	}
	stickWord(t, r0, 0, blkA.Addr/4)

	// A maps onto the stuck cell and is demoted at the end of the
	// access (no fallback region exists).
	if _, err := ctl.Access(a, 0, 4, false); err != nil {
		t.Fatal(err)
	}
	if ctl.IsMapped(a) || ctl.IsResident(a) {
		t.Error("demoted block still mapped")
	}
	st := ctl.Stats().Recovery
	if st.Demotions != 1 || st.Remaps != 0 {
		t.Errorf("no-fit degradation: %+v", st)
	}
	// The region lost word 0 to retirement: B (the full 64 words) can
	// never be placed; the allocation failure demotes it mid-access.
	if _, err := ctl.Access(bb, 0, 4, false); !errors.Is(err, ErrNotMapped) {
		t.Errorf("allocation-failure demotion returned %v, want ErrNotMapped", err)
	}
	if ctl.IsMapped(bb) {
		t.Error("unplaceable block still mapped")
	}
	if ctl.Stats().Recovery.Demotions != 2 {
		t.Errorf("Demotions = %d, want 2", ctl.Stats().Recovery.Demotions)
	}
	checkSpaceInvariant(t, ctl, 0)
	// Demoted blocks answer ErrNotMapped from now on (cache path).
	if _, err := ctl.Access(a, 0, 4, false); !errors.Is(err, ErrNotMapped) {
		t.Errorf("post-demotion access: %v", err)
	}
}
