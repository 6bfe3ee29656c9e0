package spm

import (
	"errors"
	"math/rand"
	"testing"

	"ftspm/internal/faults"
	"ftspm/internal/memtech"
)

func TestRegionKindProperties(t *testing.T) {
	tests := []struct {
		kind   RegionKind
		tech   memtech.Technology
		prot   memtech.Protection
		immune bool
		weight float64
	}{
		{RegionSTT, memtech.STTRAM, memtech.Unprotected, true, 0},
		{RegionECC, memtech.SRAM, memtech.SECDED, false, 0.38},
		{RegionParity, memtech.SRAM, memtech.Parity, false, 1.0},
		{RegionPlain, memtech.SRAM, memtech.Unprotected, false, 1.0},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			if !tt.kind.Valid() {
				t.Error("kind invalid")
			}
			if tt.kind.Technology() != tt.tech || tt.kind.Protection() != tt.prot {
				t.Errorf("tech/prot = %v/%v", tt.kind.Technology(), tt.kind.Protection())
			}
			if tt.kind.Immune() != tt.immune {
				t.Errorf("Immune = %v", tt.kind.Immune())
			}
			got := tt.kind.VulnerabilityWeight(faults.Dist40nm)
			if diff := got - tt.weight; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("weight = %v, want %v", got, tt.weight)
			}
		})
	}
	if RegionKind(0).Valid() || RegionKind(9).Valid() {
		t.Error("invalid kinds accepted")
	}
	if RegionKind(9).String() != "RegionKind(9)" {
		t.Error("unknown kind stringer")
	}
}

func TestNewRegionErrors(t *testing.T) {
	if _, err := NewRegion(RegionKind(0), 1024); !errors.Is(err, ErrBadRegionKind) {
		t.Errorf("bad kind: %v", err)
	}
	if _, err := NewRegion(RegionECC, 0); !errors.Is(err, ErrBadRegionSize) {
		t.Errorf("zero size: %v", err)
	}
	if _, err := NewRegion(RegionECC, 13); !errors.Is(err, ErrBadRegionSize) {
		t.Errorf("unaligned size: %v", err)
	}
}

func TestRegionReadWriteRoundTrip(t *testing.T) {
	for _, kind := range []RegionKind{RegionSTT, RegionECC, RegionParity, RegionPlain} {
		r, err := NewRegion(kind, 1024)
		if err != nil {
			t.Fatal(err)
		}
		want := []uint32{0xdeadbeef, 0x12345678, 0}
		wc, err := r.Write(10, want)
		if err != nil {
			t.Fatal(err)
		}
		if wc == 0 {
			t.Errorf("%v: zero write latency", kind)
		}
		got, rc, err := r.Read(10, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rc == 0 {
			t.Errorf("%v: zero read latency", kind)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: word %d = %#x, want %#x", kind, i, got[i], want[i])
			}
		}
		st := r.Stats()
		if st.ReadAccesses != 1 || st.WriteAccesses != 1 || st.WordsRead != 3 || st.WordsWritten != 3 {
			t.Errorf("%v: stats %+v", kind, st)
		}
		if st.Energy <= 0 {
			t.Errorf("%v: no energy charged", kind)
		}
		if r.WriteCount(10) != 1 || r.WriteCount(9) != 0 {
			t.Errorf("%v: write counters wrong", kind)
		}
		if r.MaxWriteCount() != 1 {
			t.Errorf("%v: MaxWriteCount = %d", kind, r.MaxWriteCount())
		}
	}
}

func TestRegionSTTWriteLatencyTableIV(t *testing.T) {
	stt, err := NewRegion(RegionSTT, 1024)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := stt.Write(0, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if wc != 10 {
		t.Errorf("STT single-word write latency = %d, want 10 (Table IV)", wc)
	}
	_, rc, err := stt.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc != 1 {
		t.Errorf("STT read latency = %d, want 1", rc)
	}
}

func TestRegionBoundsChecks(t *testing.T) {
	r, err := NewRegion(RegionECC, 64) // 16 words
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Read(15, 2); !errors.Is(err, ErrOutOfRange) {
		t.Error("read past end accepted")
	}
	if _, _, err := r.Read(-1, 1); !errors.Is(err, ErrOutOfRange) {
		t.Error("negative read accepted")
	}
	if _, err := r.Write(16, []uint32{1}); !errors.Is(err, ErrOutOfRange) {
		t.Error("write past end accepted")
	}
	if _, err := r.InjectStrike(rand.New(rand.NewSource(1)), 99, 1); !errors.Is(err, ErrOutOfRange) {
		t.Error("strike past end accepted")
	}
}

func TestRegionECCCorrectsAndScrubs(t *testing.T) {
	r, err := NewRegion(RegionECC, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(3, []uint32{0xcafe}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	flipped, err := r.InjectStrike(rng, 3, 1)
	if err != nil || !flipped {
		t.Fatalf("strike: %v flipped=%v", err, flipped)
	}
	got, _, err := r.Read(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xcafe {
		t.Errorf("ECC failed to correct: %#x", got[0])
	}
	if r.Stats().CorrectedErrors != 1 {
		t.Errorf("CorrectedErrors = %d", r.Stats().CorrectedErrors)
	}
	// Scrub-on-read repaired the stored word: reading again is clean.
	if _, _, err := r.Read(3, 1); err != nil {
		t.Fatal(err)
	}
	if r.Stats().CorrectedErrors != 1 {
		t.Error("scrub-on-read did not repair the stored word")
	}
}

func TestRegionECCDetectsDoubles(t *testing.T) {
	r, err := NewRegion(RegionECC, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(0, []uint32{0xff}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := r.InjectStrike(rng, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Read(0, 1); err != nil {
		t.Fatal(err)
	}
	if r.Stats().DetectedErrors != 1 {
		t.Errorf("DetectedErrors = %d", r.Stats().DetectedErrors)
	}
}

func TestRegionSTTImmune(t *testing.T) {
	r, err := NewRegion(RegionSTT, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(5, []uint32{42}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	flipped, err := r.InjectStrike(rng, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flipped {
		t.Error("STT-RAM region flipped bits under strike")
	}
	got, _, err := r.Read(5, 1)
	if err != nil || got[0] != 42 {
		t.Errorf("STT content corrupted: %v %v", got, err)
	}
}

func TestRegionAudit(t *testing.T) {
	r, err := NewRegion(RegionParity, 64) // 16 words
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(0, []uint32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	clean := r.Audit()
	if clean.Benign != 16 || clean.SDC != 0 {
		t.Errorf("clean audit = %+v", clean)
	}
	rng := rand.New(rand.NewSource(5))
	if _, err := r.InjectStrike(rng, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InjectStrike(rng, 2, 2); err != nil {
		t.Fatal(err)
	}
	got := r.Audit()
	if got.DUE != 1 {
		t.Errorf("audit DUE = %d, want 1 (single flip detected by parity)", got.DUE)
	}
	if got.SDC != 1 {
		t.Errorf("audit SDC = %d, want 1 (double flip silent under parity)", got.SDC)
	}
	if got.Benign != 14 {
		t.Errorf("audit Benign = %d", got.Benign)
	}
}

func buildHybrid(t *testing.T) *SPM {
	t.Helper()
	s, err := New(memtech.HybridControllerLeakage,
		RegionConfig{Kind: RegionSTT, SizeBytes: 12 * 1024},
		RegionConfig{Kind: RegionECC, SizeBytes: 2 * 1024},
		RegionConfig{Kind: RegionParity, SizeBytes: 2 * 1024},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSPMGeometry(t *testing.T) {
	s := buildHybrid(t)
	if s.NumRegions() != 3 {
		t.Fatalf("NumRegions = %d", s.NumRegions())
	}
	if s.TotalBytes() != 16*1024 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
	if _, err := s.Region(3); !errors.Is(err, ErrOutOfRange) {
		t.Error("out-of-range region accepted")
	}
	if _, ok := s.RegionByKind(RegionECC); !ok {
		t.Error("RegionByKind(ECC) failed")
	}
	if _, ok := s.RegionByKind(RegionPlain); ok {
		t.Error("RegionByKind(Plain) found a phantom region")
	}
	if len(s.Regions()) != 3 {
		t.Error("Regions() wrong length")
	}
	// FTSPM data-SPM leakage: 12K STT (1.13) + 2K ECC (0.99) + 2K parity
	// (0.93) + hybrid controller (2.55) ≈ 5.6 mW; adding the 16K STT
	// I-SPM (1.5) reaches the paper's 7.1 mW total.
	leak := float64(s.Leakage())
	if leak < 5.3 || leak > 5.9 {
		t.Errorf("hybrid D-SPM leakage = %.2f mW, want ~5.6", leak)
	}
	if _, err := New(0); !errors.Is(err, ErrNoRegions) {
		t.Error("empty SPM accepted")
	}
	if _, err := New(0, RegionConfig{Kind: RegionECC, SizeBytes: -1}); err == nil {
		t.Error("bad region config accepted")
	}
}

func TestSPMInjectStrikeDistribution(t *testing.T) {
	// Strikes must land across regions in proportion to stored bits;
	// only SRAM-region strikes flip bits.
	s := buildHybrid(t)
	rng := rand.New(rand.NewSource(6))
	flips := 0
	const n = 5000
	for i := 0; i < n; i++ {
		flipped, err := s.InjectStrike(rng, faults.Dist40nm)
		if err != nil {
			t.Fatal(err)
		}
		if flipped {
			flips++
		}
	}
	// SRAM code bits: ECC 512w×39 + parity 512w×33 = 36864; STT bits:
	// 3072w×32 = 98304. SRAM share ≈ 27%.
	frac := float64(flips) / n
	if frac < 0.22 || frac > 0.33 {
		t.Errorf("SRAM strike fraction = %.3f, want ~0.27", frac)
	}
	tally := s.Audit()
	if tally.Total() != 4096 {
		t.Errorf("audit total = %d, want 4096 words", tally.Total())
	}
	if tally.DUE == 0 {
		t.Error("no detected upsets after 5000 strikes")
	}
	if got := s.DynamicEnergy(); got != 0 {
		t.Errorf("injection charged energy: %v", got)
	}
}

func TestRegionScrub(t *testing.T) {
	r, err := NewRegion(RegionECC, 256) // 64 words
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(0, []uint32{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	// Word 0: single flip (repairable). Word 1: double flip
	// (uncorrectable). Word 2: clean.
	if _, err := r.InjectStrike(rng, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InjectStrike(rng, 1, 2); err != nil {
		t.Fatal(err)
	}
	repaired, detected, cycles := r.ScrubWords()
	if repaired != 1 || len(detected) != 1 || detected[0] != 1 {
		t.Errorf("ScrubWords = %d repaired / detected %v, want 1 / [1]", repaired, detected)
	}
	if cycles == 0 {
		t.Error("scrub charged no cycles")
	}
	// After the scrub, the repaired word is clean; the double flip
	// remains detected.
	repaired2, detected2, _ := r.ScrubWords()
	if repaired2 != 0 || len(detected2) != 1 {
		t.Errorf("second ScrubWords = %d/%v, want 0/[1]", repaired2, detected2)
	}
	// The repair bumped the word's write counter.
	if r.WriteCount(0) != 2 {
		t.Errorf("repaired word write count = %d, want 2", r.WriteCount(0))
	}
}

func TestSTTRegionScrubIsNoOp(t *testing.T) {
	r, err := NewRegion(RegionSTT, 256)
	if err != nil {
		t.Fatal(err)
	}
	repaired, detected, _ := r.ScrubWords()
	if repaired != 0 || len(detected) != 0 {
		t.Error("immune region scrub found errors")
	}
}
