package spm

import (
	"errors"
	"fmt"
	"math/rand"

	"ftspm/internal/faults"
	"ftspm/internal/memtech"
)

// RegionConfig sizes one region of an SPM.
type RegionConfig struct {
	Kind      RegionKind
	SizeBytes int
}

// SPM is one scratchpad memory: an ordered set of protection regions.
// The FTSPM data SPM is {STT 12K, ECC 2K, parity 2K}; the baselines and
// the instruction SPM are single-region instances (Table IV).
type SPM struct {
	regions []*Region
	// extraLeakage covers structure-level controller/peripheral leakage
	// beyond the per-bank values (the hybrid mapping controller of
	// Fig. 1).
	extraLeakage memtech.Milliwatts
}

// ErrNoRegions rejects an empty configuration.
var ErrNoRegions = errors.New("spm: at least one region required")

// New builds an SPM from region configurations. extraLeakage adds
// structure-level controller leakage (use
// memtech.HybridControllerLeakage for the FTSPM hybrid, 0 for
// single-region structures).
func New(extraLeakage memtech.Milliwatts, configs ...RegionConfig) (*SPM, error) {
	if len(configs) == 0 {
		return nil, ErrNoRegions
	}
	s := &SPM{extraLeakage: extraLeakage}
	for _, cfg := range configs {
		r, err := NewRegion(cfg.Kind, cfg.SizeBytes)
		if err != nil {
			return nil, fmt.Errorf("spm: region %v: %w", cfg.Kind, err)
		}
		s.regions = append(s.regions, r)
	}
	return s, nil
}

// NumRegions returns the region count.
func (s *SPM) NumRegions() int { return len(s.regions) }

// Region returns the i-th region.
func (s *SPM) Region(i int) (*Region, error) {
	if i < 0 || i >= len(s.regions) {
		return nil, fmt.Errorf("%w: region %d of %d", ErrOutOfRange, i, len(s.regions))
	}
	return s.regions[i], nil
}

// RegionByKind returns the first region of the given kind.
func (s *SPM) RegionByKind(k RegionKind) (*Region, bool) {
	for _, r := range s.regions {
		if r.kind == k {
			return r, true
		}
	}
	return nil, false
}

// Regions returns the regions in configuration order. The slice is a
// copy; the *Region values are the live regions.
func (s *SPM) Regions() []*Region {
	out := make([]*Region, len(s.regions))
	copy(out, s.regions)
	return out
}

// TotalBytes returns the summed capacity.
func (s *SPM) TotalBytes() int {
	total := 0
	for _, r := range s.regions {
		total += r.SizeBytes()
	}
	return total
}

// Leakage returns the structure's static power: per-bank leakage plus
// the structure-level controller overhead.
func (s *SPM) Leakage() memtech.Milliwatts {
	total := s.extraLeakage
	for _, r := range s.regions {
		total += r.bank.Leakage
	}
	return total
}

// DynamicEnergy sums the accumulated access energy over all regions.
func (s *SPM) DynamicEnergy() memtech.Picojoules {
	var total memtech.Picojoules
	for _, r := range s.regions {
		total += r.stats.Energy
	}
	return total
}

// EnableWear attaches the STT-RAM write-unreliability model to every
// STT-RAM region of the SPM (SRAM cells do not wear). Each region gets
// its own deterministic random stream derived from cfg.Seed and the
// region index, so multi-region structures stay reproducible.
func (s *SPM) EnableWear(cfg WearConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for i, r := range s.regions {
		if r.Kind().Technology() != memtech.STTRAM {
			continue
		}
		if err := r.EnableWear(cfg, cfg.Seed+int64(i)*0x9e3779b9); err != nil {
			return err
		}
	}
	return nil
}

// SetWearScale forwards the storm thermal multiplier to every region
// carrying a wear model (regions without one ignore it).
func (s *SPM) SetWearScale(scale float64) {
	for _, r := range s.regions {
		r.SetWearScale(scale)
	}
}

// StoredBits returns the total stored code bits over all regions — the
// particle-catching surface used to weight strike targeting.
func (s *SPM) StoredBits() int {
	total := 0
	for _, r := range s.regions {
		total += r.Words() * r.codec.CodeBits()
	}
	return total
}

// StrikeSurface returns the geometry strikes land on, one entry per
// region in configuration order: what faults.PlanStrike and the storm
// process draw over in place of InjectStrike's live walk.
func (s *SPM) StrikeSurface() []faults.RegionSurface {
	surf := make([]faults.RegionSurface, len(s.regions))
	for i, r := range s.regions {
		surf[i] = faults.RegionSurface{
			Words: r.Words(), CodeBits: r.codec.CodeBits(), Immune: r.kind.Immune(),
		}
	}
	return surf
}

// InjectStrike lands one particle strike on the SPM surface: the struck
// region is chosen in proportion to its stored code bits (larger banks
// catch more particles, and a parity word's 33 stored bits weigh less
// than a SEC-DED word's 39), then the strike corrupts a cluster of
// adjacent bits confined to the chosen word's codeword — word
// granularity is preserved for every protection level. Strikes on
// immune STT-RAM regions are absorbed. It reports whether any bit
// flipped.
func (s *SPM) InjectStrike(rng *rand.Rand, dist faults.MBUDistribution) (bool, error) {
	totalBits := s.StoredBits()
	if totalBits == 0 {
		return false, ErrNoRegions
	}
	pick := rng.Intn(totalBits)
	for _, r := range s.regions {
		bits := r.Words() * r.codec.CodeBits()
		if pick < bits {
			word := pick / r.codec.CodeBits()
			return r.InjectStrike(rng, word, dist.Sample(rng))
		}
		pick -= bits
	}
	return false, nil // unreachable
}

// Audit classifies every stored word of every region against its golden
// payload.
func (s *SPM) Audit() faults.Tally {
	var t faults.Tally
	for _, r := range s.regions {
		rt := r.Audit()
		t.Benign += rt.Benign
		t.DRE += rt.DRE
		t.DUE += rt.DUE
		t.SDC += rt.SDC
	}
	return t
}
