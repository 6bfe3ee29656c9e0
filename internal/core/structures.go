// Package core implements the paper's contribution: the FTSPM hybrid SPM
// structures (Table IV) and the multi-priority Mapping Determiner
// Algorithm (Algorithm 1) that distributes program blocks over the
// hybrid regions under performance, energy, and endurance budgets.
package core

import (
	"errors"
	"fmt"
	"strings"

	"ftspm/internal/memtech"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
)

// Structure identifies one of the three evaluated SPM organizations.
type Structure int

// Evaluated structures (Table IV columns).
const (
	// StructFTSPM is the proposed hybrid: 16 KB STT-RAM I-SPM and a
	// data SPM of 12 KB STT-RAM + 2 KB SEC-DED SRAM + 2 KB parity SRAM.
	StructFTSPM Structure = iota + 1
	// StructPureSRAM is the baseline 16+16 KB SEC-DED SRAM SPM.
	StructPureSRAM
	// StructPureSTT is the baseline 16+16 KB STT-RAM SPM.
	StructPureSTT
	// StructDMR is the duplication comparator from the related work
	// [3]: every word stored twice in unprotected SRAM. At the same
	// cell area as the other structures it offers half the data
	// capacity (8+8 KB), near-total detection, and no correction — the
	// "high overheads in terms of power and die size" the paper argues
	// against, quantified (experiments.RelatedWork).
	StructDMR
)

// String implements fmt.Stringer.
func (s Structure) String() string {
	switch s {
	case StructFTSPM:
		return "FTSPM"
	case StructPureSRAM:
		return "pure-SRAM"
	case StructPureSTT:
		return "pure-STT-RAM"
	case StructDMR:
		return "DMR-SRAM"
	default:
		return fmt.Sprintf("Structure(%d)", int(s))
	}
}

// ParseStructure resolves a structure name, case-insensitively: the
// canonical String() names and the short aliases the commands and the
// ftspmd API accept ("ftspm", "sram", "stt", "dmr").
func ParseStructure(name string) (Structure, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "ftspm":
		return StructFTSPM, nil
	case "sram", "pure-sram":
		return StructPureSRAM, nil
	case "stt", "stt-ram", "pure-stt", "pure-stt-ram":
		return StructPureSTT, nil
	case "dmr", "duplication", "dmr-sram":
		return StructDMR, nil
	default:
		return 0, fmt.Errorf("%w: %q (ftspm, sram, stt, dmr)", ErrUnknownStructure, name)
	}
}

// Valid reports whether s is a known structure.
func (s Structure) Valid() bool {
	switch s {
	case StructFTSPM, StructPureSRAM, StructPureSTT, StructDMR:
		return true
	default:
		return false
	}
}

// Structures returns the three paper-evaluated structures in Table IV
// order (the DMR comparator is extra; see AllStructures).
func Structures() []Structure {
	return []Structure{StructPureSRAM, StructPureSTT, StructFTSPM}
}

// AllStructures additionally includes the related-work DMR comparator.
func AllStructures() []Structure {
	return append(Structures(), StructDMR)
}

// Spec is the geometry of one structure.
type Spec struct {
	// Structure names the organization.
	Structure Structure
	// ISPM and DSPM are the region configurations of the two SPMs.
	ISPM, DSPM []spm.RegionConfig
	// ExtraLeakage is the structure-level controller leakage (hybrid
	// mapping controller for FTSPM).
	ExtraLeakage memtech.Milliwatts
	// DataKinds lists the data-SPM region kinds in falling reliability
	// order (the MDA's placement targets).
	DataKinds []spm.RegionKind
	// CodeKind is the I-SPM region kind.
	CodeKind spm.RegionKind
}

// ErrUnknownStructure is returned for invalid Structure values and
// unknown structure names.
var ErrUnknownStructure = errors.New("core: unknown structure")

// NewSpec returns the Table IV geometry of the structure.
func NewSpec(s Structure) (Spec, error) {
	const kb = 1024
	switch s {
	case StructFTSPM:
		return Spec{
			Structure: s,
			ISPM:      []spm.RegionConfig{{Kind: spm.RegionSTT, SizeBytes: 16 * kb}},
			DSPM: []spm.RegionConfig{
				{Kind: spm.RegionSTT, SizeBytes: 12 * kb},
				{Kind: spm.RegionECC, SizeBytes: 2 * kb},
				{Kind: spm.RegionParity, SizeBytes: 2 * kb},
			},
			ExtraLeakage: memtech.HybridControllerLeakage,
			DataKinds:    []spm.RegionKind{spm.RegionSTT, spm.RegionECC, spm.RegionParity},
			CodeKind:     spm.RegionSTT,
		}, nil
	case StructPureSRAM:
		return Spec{
			Structure: s,
			ISPM:      []spm.RegionConfig{{Kind: spm.RegionECC, SizeBytes: 16 * kb}},
			DSPM:      []spm.RegionConfig{{Kind: spm.RegionECC, SizeBytes: 16 * kb}},
			DataKinds: []spm.RegionKind{spm.RegionECC},
			CodeKind:  spm.RegionECC,
		}, nil
	case StructPureSTT:
		return Spec{
			Structure: s,
			ISPM:      []spm.RegionConfig{{Kind: spm.RegionSTT, SizeBytes: 16 * kb}},
			DSPM:      []spm.RegionConfig{{Kind: spm.RegionSTT, SizeBytes: 16 * kb}},
			DataKinds: []spm.RegionKind{spm.RegionSTT},
			CodeKind:  spm.RegionSTT,
		}, nil
	case StructDMR:
		// Iso-area with the SRAM baseline: duplication halves the data
		// capacity of the same cell array.
		return Spec{
			Structure: s,
			ISPM:      []spm.RegionConfig{{Kind: spm.RegionDMR, SizeBytes: 8 * kb}},
			DSPM:      []spm.RegionConfig{{Kind: spm.RegionDMR, SizeBytes: 8 * kb}},
			DataKinds: []spm.RegionKind{spm.RegionDMR},
			CodeKind:  spm.RegionDMR,
		}, nil
	default:
		return Spec{}, fmt.Errorf("%w: %d", ErrUnknownStructure, int(s))
	}
}

// MustSpec is NewSpec for statically-valid structures.
func MustSpec(s Structure) Spec {
	spec, err := NewSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// ISPMBytes returns the instruction-SPM capacity.
func (s Spec) ISPMBytes() int {
	total := 0
	for _, r := range s.ISPM {
		total += r.SizeBytes
	}
	return total
}

// DSPMBytes returns the data-SPM capacity.
func (s Spec) DSPMBytes() int {
	total := 0
	for _, r := range s.DSPM {
		total += r.SizeBytes
	}
	return total
}

// TotalBytes returns the full SPM surface (the AVF occupancy
// denominator).
func (s Spec) TotalBytes() int { return s.ISPMBytes() + s.DSPMBytes() }

// DataRegionBytes returns the capacity of the first data region of the
// given kind, 0 if absent.
func (s Spec) DataRegionBytes(kind spm.RegionKind) int {
	for _, r := range s.DSPM {
		if r.Kind == kind {
			return r.SizeBytes
		}
	}
	return 0
}

// SimConfig assembles the sim.Config for this structure with the given
// placement, on the default Table IV platform (8 KB L1s, default DRAM).
func (s Spec) SimConfig(place spm.Placement) sim.Config {
	cfg := sim.DefaultPlatform()
	cfg.ISPM = s.ISPM
	cfg.DSPM = s.DSPM
	cfg.ExtraLeakage = s.ExtraLeakage
	cfg.Placement = place
	return cfg
}

// Leakage returns the structure's total SPM static power (both SPMs plus
// controller overhead), the Fig. 6 per-structure constant.
func (s Spec) Leakage() (memtech.Milliwatts, error) {
	total := s.ExtraLeakage
	for _, rc := range append(append([]spm.RegionConfig{}, s.ISPM...), s.DSPM...) {
		bank, err := memtech.EstimateBank(rc.Kind.Technology(), rc.Kind.Protection(), rc.SizeBytes)
		if err != nil {
			return 0, err
		}
		total += bank.Leakage
	}
	return total, nil
}
