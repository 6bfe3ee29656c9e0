package spm_test

import (
	"math/rand"
	"testing"

	"ftspm/internal/ecc"
	"ftspm/internal/faults"
	"ftspm/internal/spm"
)

// TestPlanStrikeMatchesInjectStrike is the RNG-lockstep contract behind
// the packed soak engine's strike precomputation: faults.PlanStrike
// must consume its RNG in exactly the draw order of SPM.InjectStrike
// and land the same bit flips. Two identically seeded generators drive
// the two paths over a mixed surface (immune STT, SEC-DED, parity);
// the planned deltas are accumulated into a shadow store and must
// reproduce the SPM's audit exactly, and the generators must still be
// in lockstep afterwards.
func TestPlanStrikeMatchesInjectStrike(t *testing.T) {
	s, err := spm.New(0,
		spm.RegionConfig{Kind: spm.RegionSTT, SizeBytes: 256},
		spm.RegionConfig{Kind: spm.RegionECC, SizeBytes: 128},
		spm.RegionConfig{Kind: spm.RegionParity, SizeBytes: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	regions := s.Regions()
	surf := s.StrikeSurface()
	shadow := make([][]uint64, len(regions))
	for i, r := range regions {
		shadow[i] = make([]uint64, r.Words())
	}
	total := faults.SurfaceBits(surf)
	if total != s.StoredBits() {
		t.Fatalf("surface bits %d != SPM stored bits %d", total, s.StoredBits())
	}

	dist := faults.Dist40nm
	live := rand.New(rand.NewSource(99))
	plan := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		flipped, err := s.InjectStrike(live, dist)
		if err != nil {
			t.Fatal(err)
		}
		ps := faults.PlanStrike(plan, surf, total, dist)
		if ps.Region < 0 {
			t.Fatalf("strike %d: planner fell off the surface", i)
		}
		if flipped != (ps.Delta != 0) {
			t.Fatalf("strike %d: live flipped=%v but planned delta %#x", i, flipped, ps.Delta)
		}
		shadow[ps.Region][ps.Word] ^= ps.Delta
	}
	// Both generators consumed the same number of draws iff their next
	// outputs coincide (and keep coinciding).
	for i := 0; i < 4; i++ {
		if a, b := live.Int63(), plan.Int63(); a != b {
			t.Fatalf("RNG streams out of lockstep after injection (draw %d: %d vs %d)", i, a, b)
		}
	}

	// Replaying the shadow deltas over the power-on codewords must
	// reproduce the SPM's audit classification word for word.
	var want faults.Tally
	for i, r := range regions {
		base := r.Codec().Encode(ecc.BitsFromUint64(0)).Uint64()
		for _, d := range shadow[i] {
			data, status := r.Codec().Decode(ecc.BitsFromUint64(base ^ d))
			intact := uint32(data.Uint64()) == 0
			switch status {
			case ecc.Corrected:
				if intact {
					want.Add(faults.DRE)
				} else {
					want.Add(faults.SDC)
				}
			case ecc.Detected:
				want.Add(faults.DUE)
			default:
				if intact {
					want.Add(faults.Benign)
				} else {
					want.Add(faults.SDC)
				}
			}
		}
	}
	if got := s.Audit(); got != want {
		t.Errorf("audit mismatch:\nshadow: %+v\nSPM:    %+v", want, got)
	}
	if got := s.Audit(); got.DUE+got.SDC+got.DRE == 0 {
		t.Error("no strike left a classifiable mark; test is vacuous")
	}
}
