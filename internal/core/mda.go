package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ftspm/internal/memtech"
	"ftspm/internal/profile"
	"ftspm/internal/program"
	"ftspm/internal/spm"
)

// Priority selects which budget the multi-priority mapping tightens, as
// Section III describes: the algorithm "is also able to optimize the
// mapping of program blocks for reliability, performance, power, or
// endurance according to system requirements".
type Priority int

// Priorities.
const (
	// PriorityReliability keeps as many blocks as possible in the
	// immune STT-RAM region (the default budgets).
	PriorityReliability Priority = iota + 1
	// PriorityPerformance tightens the performance budget, pushing
	// write traffic out of the slow-write STT-RAM early.
	PriorityPerformance
	// PriorityPower tightens the dynamic-energy budget.
	PriorityPower
	// PriorityEndurance tightens the write-cycle threshold.
	PriorityEndurance
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityReliability:
		return "reliability"
	case PriorityPerformance:
		return "performance"
	case PriorityPower:
		return "power"
	case PriorityEndurance:
		return "endurance"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority resolves a String() name of a priority,
// case-insensitively.
func ParsePriority(name string) (Priority, error) {
	for p := PriorityReliability; p <= PriorityEndurance; p++ {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w: %q (reliability, performance, power, endurance)", ErrBadPriority, name)
}

// Valid reports whether p is a known priority.
func (p Priority) Valid() bool {
	return p >= PriorityReliability && p <= PriorityEndurance
}

// Thresholds are the Algorithm 1 budgets ("custom predefined percentage
// of overhead from the ideal situation").
type Thresholds struct {
	// PerfOverhead bounds the estimated cycle overhead of the mapping
	// relative to the all-parity-SRAM ideal (step 3).
	PerfOverhead float64
	// EnergyOverhead bounds the estimated dynamic-energy overhead
	// relative to the same ideal (step 4).
	EnergyOverhead float64
	// WriteFraction is the step 5 write-cycle threshold, expressed as a
	// fraction of the program's total data write words so it is
	// trace-length invariant: blocks writing more than this share are
	// deported from STT-RAM regardless of vulnerability.
	WriteFraction float64
	// CellWriteFraction is the per-cell companion of WriteFraction:
	// a block is also deported when its hottest single word absorbs
	// more than this share of the total data write words. Endurance is
	// a per-cell phenomenon — a stack slot rewritten by every call
	// wears out long before a streaming buffer of the same total write
	// volume — so step 5 checks both (refinement documented in
	// DESIGN.md).
	CellWriteFraction float64
}

// DefaultThresholds returns the budgets used throughout the evaluation.
func DefaultThresholds() Thresholds {
	return Thresholds{
		PerfOverhead:      0.10,
		EnergyOverhead:    0.30,
		WriteFraction:     0.01,
		CellWriteFraction: 0.001,
	}
}

// ForPriority returns the thresholds tightened for the given priority
// (reliability keeps the defaults — the loosest budgets keep the most
// blocks in the immune region).
func (t Thresholds) ForPriority(p Priority) Thresholds {
	out := t
	switch p {
	case PriorityPerformance:
		out.PerfOverhead *= 0.25
	case PriorityPower:
		out.EnergyOverhead *= 0.25
	case PriorityEndurance:
		out.WriteFraction *= 0.25
		out.CellWriteFraction *= 0.25
	}
	return out
}

// Validate rejects non-positive budgets.
func (t Thresholds) Validate() error {
	if t.PerfOverhead <= 0 || t.EnergyOverhead <= 0 ||
		t.WriteFraction <= 0 || t.CellWriteFraction <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadThresholds, t)
	}
	return nil
}

// Decision records why one block ended up where it did (the Table II
// rows).
type Decision struct {
	// Block is the decided block.
	Block program.Block
	// Mapped is false when the block stays off-SPM (served by caches).
	Mapped bool
	// Target is the region kind for mapped blocks.
	Target spm.RegionKind
	// Evicted is true for data blocks deported from STT-RAM by steps
	// 3-5.
	Evicted bool
	// Reason is a human-readable explanation.
	Reason string
}

// Mapping is the MDA output.
type Mapping struct {
	// Placement feeds the SPM controller.
	Placement spm.Placement
	// Decisions lists every block in program order.
	Decisions []Decision
	// AvgEvictedSusceptibility is the step 6 split point.
	AvgEvictedSusceptibility float64
	// EstPerfOverhead and EstEnergyOverhead are the final estimated
	// overheads versus the all-parity ideal.
	EstPerfOverhead, EstEnergyOverhead float64
	// WriteThresholdWords is the resolved step 5 threshold.
	WriteThresholdWords float64
	// Spec is the structure the mapping targets.
	Spec Spec
}

// Decision returns the decision for a named block.
func (m Mapping) Decision(name string) (Decision, bool) {
	for _, d := range m.Decisions {
		if d.Block.Name == name {
			return d, true
		}
	}
	return Decision{}, false
}

// Errors returned by MapBlocks.
var (
	ErrNilProfile    = errors.New("core: profile must not be nil")
	ErrBadThresholds = errors.New("core: thresholds must be positive")
	ErrBadPriority   = errors.New("core: unknown priority")
)

// costModel caches the per-kind word latencies/energies of the spec's
// data regions for the analytic overhead estimates of steps 3-4.
type costModel struct {
	readLat, writeLat map[spm.RegionKind]memtech.Cycles
	readE, writeE     map[spm.RegionKind]memtech.Picojoules
	idealKind         spm.RegionKind
}

func newCostModel(spec Spec) (*costModel, error) {
	cm := &costModel{
		readLat:  make(map[spm.RegionKind]memtech.Cycles),
		writeLat: make(map[spm.RegionKind]memtech.Cycles),
		readE:    make(map[spm.RegionKind]memtech.Picojoules),
		writeE:   make(map[spm.RegionKind]memtech.Picojoules),
	}
	for _, rc := range spec.DSPM {
		bank, err := memtech.EstimateBank(rc.Kind.Technology(), rc.Kind.Protection(), rc.SizeBytes)
		if err != nil {
			return nil, err
		}
		cm.readLat[rc.Kind] = bank.ReadLatency
		cm.writeLat[rc.Kind] = bank.WriteLatency
		cm.readE[rc.Kind] = bank.ReadEnergy
		cm.writeE[rc.Kind] = bank.WriteEnergy
	}
	// The "ideal situation" of Algorithm 1 is the fastest, cheapest
	// region available: parity SRAM when present, else the structure's
	// only kind.
	cm.idealKind = spec.DataKinds[len(spec.DataKinds)-1]
	return cm, nil
}

// overheads returns the estimated performance and energy overheads of
// the current assignment versus the all-ideal-region scenario.
// Blocks evicted but not yet assigned are charged at the ideal kind.
func (cm *costModel) overheads(prof *profile.Profile, assign map[program.BlockID]spm.RegionKind,
	execCycles memtech.Cycles) (perf, energy float64) {
	if execCycles == 0 {
		return 0, 0
	}
	var extraCycles float64
	var eScenario, eIdeal float64
	for _, bp := range prof.DataBlocks() {
		kind, ok := assign[bp.Block.ID]
		if !ok {
			kind = cm.idealKind
		}
		rw, ww := float64(bp.ReadWords), float64(bp.WriteWords)
		extraCycles += rw*float64(cm.readLat[kind]-cm.readLat[cm.idealKind]) +
			ww*float64(cm.writeLat[kind]-cm.writeLat[cm.idealKind])
		eScenario += rw*float64(cm.readE[kind]) + ww*float64(cm.writeE[kind])
		eIdeal += rw*float64(cm.readE[cm.idealKind]) + ww*float64(cm.writeE[cm.idealKind])
	}
	perf = extraCycles / float64(execCycles)
	if eIdeal > 0 {
		energy = (eScenario - eIdeal) / eIdeal
	}
	return perf, energy
}

// MapBlocks runs the Mapping Determiner Algorithm (Algorithm 1) over a
// profile for a structure. For the single-region baselines only step 1
// applies; for the hybrid FTSPM structure the full six steps run.
func MapBlocks(prof *profile.Profile, spec Spec, th Thresholds, prio Priority) (Mapping, error) {
	if prof == nil {
		return Mapping{}, ErrNilProfile
	}
	if !prio.Valid() {
		return Mapping{}, fmt.Errorf("%w: %d", ErrBadPriority, int(prio))
	}
	if err := th.Validate(); err != nil {
		return Mapping{}, err
	}
	th = th.ForPriority(prio)

	m := Mapping{Placement: make(spm.Placement), Spec: spec}
	cm, err := newCostModel(spec)
	if err != nil {
		return Mapping{}, err
	}

	decisions := make(map[program.BlockID]*Decision)
	record := func(b program.Block) *Decision {
		d := &Decision{Block: b}
		decisions[b.ID] = d
		return d
	}

	// Step 1a: instruction blocks into the I-SPM (lines 2-4). The
	// paper's check is per-block against the I-SPM size; the dynamic
	// on-line phase time-shares the space.
	for _, bp := range prof.CodeBlocks() {
		d := record(bp.Block)
		if bp.Block.Size <= spec.ISPMBytes() {
			d.Mapped, d.Target = true, spec.CodeKind
			d.Reason = "fits I-SPM"
			m.Placement[bp.Block.ID] = spec.CodeKind
		} else {
			d.Reason = fmt.Sprintf("exceeds %d KB I-SPM", spec.ISPMBytes()/1024)
		}
	}

	// Step 1b: data blocks into the primary (most reliable) data region
	// (lines 5-7).
	primary := spec.DataKinds[0]
	primaryBytes := spec.DataRegionBytes(primary)
	assign := make(map[program.BlockID]spm.RegionKind)
	var inPrimary []profile.BlockProfile
	for _, bp := range prof.DataBlocks() {
		d := record(bp.Block)
		if bp.Block.Size <= primaryBytes {
			assign[bp.Block.ID] = primary
			inPrimary = append(inPrimary, bp)
			d.Mapped, d.Target = true, primary
			d.Reason = "initial " + primary.String() + " mapping"
		} else {
			d.Reason = fmt.Sprintf("exceeds %d KB %v region", primaryBytes/1024, primary)
		}
	}

	// Single-region structures (the baselines) are done.
	if len(spec.DataKinds) > 1 {
		// Step 2: descending susceptibility order (lines 9-12).
		sort.SliceStable(inPrimary, func(i, j int) bool {
			si, sj := inPrimary[i].Susceptibility(), inPrimary[j].Susceptibility()
			if si != sj {
				return si > sj
			}
			return inPrimary[i].Block.Name < inPrimary[j].Block.Name
		})

		// Two refinements over the literal Algorithm 1 listing, both
		// documented in DESIGN.md:
		//
		//  1. The endurance filter (step 5) runs before the
		//     performance/energy loops. The paper's own narrative says
		//     the algorithm "deports the write intensive blocks ...
		//     through the primary stage of mapping", and its case study
		//     evicts exactly the write-hot blocks; running the filter
		//     last would let steps 3-4 spend their budget evicting
		//     read-mostly blocks first.
		//  2. The step 3/4 loops evict the least-susceptible block
		//     *among those contributing overhead*. Evicting a block
		//     whose STT-RAM costs equal the ideal's (a read-only block:
		//     STT reads are already 1 cycle) can never reduce the
		//     overhead, so the literal loop would discard reliability
		//     for nothing and might never converge.
		var evicted []profile.BlockProfile
		evictAt := func(i int, reason string) {
			bp := inPrimary[i]
			inPrimary = append(inPrimary[:i], inPrimary[i+1:]...)
			delete(assign, bp.Block.ID)
			evicted = append(evicted, bp)
			d := decisions[bp.Block.ID]
			d.Evicted = true
			d.Reason = reason
		}
		// leastContributing returns the index of the least-susceptible
		// block with positive marginal overhead, -1 if none. inPrimary
		// is in descending susceptibility order, so scan from the back.
		leastContributing := func() int {
			for i := len(inPrimary) - 1; i >= 0; i-- {
				if inPrimary[i].WriteWords > 0 || cm.readLat[primary] > cm.readLat[cm.idealKind] {
					return i
				}
			}
			return -1
		}

		// Step 5 (run first, see above): deport write-intensive blocks
		// regardless of vulnerability (lines 23-27).
		totalWrites := float64(totalDataWriteWords(prof))
		m.WriteThresholdWords = th.WriteFraction * totalWrites
		cellThreshold := th.CellWriteFraction * totalWrites
		// A block is write-intensive only if it is also write-dense
		// relative to its own traffic: a buffer read millions of times
		// with a rare in-place update is exactly what STT-RAM is for,
		// and spreading its few writes over its many words cannot wear
		// any cell (refinement documented in DESIGN.md).
		const minOwnWriteShare = 0.02
		for i := len(inPrimary) - 1; i >= 0; i-- {
			bp := inPrimary[i]
			ownShare := 0.0
			if total := bp.ReadWords + bp.WriteWords; total > 0 {
				ownShare = float64(bp.WriteWords) / float64(total)
			}
			switch {
			case float64(bp.WriteWords) > m.WriteThresholdWords && ownShare > minOwnWriteShare:
				evictAt(i, "evicted: write-cycle threshold")
			case float64(bp.MaxWordWrites) > cellThreshold:
				evictAt(i, "evicted: per-cell write concentration")
			}
		}

		// Step 3: performance budget (lines 13-17).
		for len(inPrimary) > 0 {
			perf, _ := cm.overheads(prof, assign, prof.ExecCycles)
			if perf <= th.PerfOverhead {
				break
			}
			i := leastContributing()
			if i < 0 {
				break
			}
			evictAt(i, "evicted: performance budget")
		}

		// Step 4: energy budget (lines 18-22).
		for len(inPrimary) > 0 {
			_, energy := cm.overheads(prof, assign, prof.ExecCycles)
			if energy <= th.EnergyOverhead {
				break
			}
			i := leastContributing()
			if i < 0 {
				break
			}
			evictAt(i, "evicted: energy budget")
		}

		// Step 6: place evicted blocks around the mean susceptibility
		// (lines 28-36): more susceptible halves earn the stronger
		// (SEC-DED) region.
		if len(evicted) > 0 {
			var sum float64
			for _, bp := range evicted {
				sum += bp.Susceptibility()
			}
			m.AvgEvictedSusceptibility = sum / float64(len(evicted))
			eccBytes := spec.DataRegionBytes(spm.RegionECC)
			parityBytes := spec.DataRegionBytes(spm.RegionParity)
			sort.SliceStable(evicted, func(i, j int) bool {
				si, sj := evicted[i].Susceptibility(), evicted[j].Susceptibility()
				if si != sj {
					return si > sj
				}
				return evicted[i].Block.Name < evicted[j].Block.Name
			})
			for _, bp := range evicted {
				d := decisions[bp.Block.ID]
				var kind spm.RegionKind
				switch {
				case bp.Susceptibility() >= m.AvgEvictedSusceptibility && bp.Block.Size <= eccBytes:
					kind = spm.RegionECC
				case bp.Block.Size <= parityBytes:
					kind = spm.RegionParity
				case bp.Block.Size <= eccBytes:
					kind = spm.RegionECC
				default:
					d.Mapped = false
					d.Reason += "; fits no SRAM region, unmapped"
					continue
				}
				assign[bp.Block.ID] = kind
				d.Mapped, d.Target = true, kind
				d.Reason += " -> " + kind.String()
			}
		}
	}

	for id, kind := range assign {
		m.Placement[id] = kind
	}
	m.EstPerfOverhead, m.EstEnergyOverhead = cm.overheads(prof, assign, prof.ExecCycles)

	// Decisions in program block order.
	blocks := prof.Program().Blocks()
	for _, b := range blocks {
		if d, ok := decisions[b.ID]; ok {
			m.Decisions = append(m.Decisions, *d)
		}
	}
	return m, nil
}

func totalDataWriteWords(prof *profile.Profile) int {
	total := 0
	for _, bp := range prof.DataBlocks() {
		total += bp.WriteWords
	}
	return total
}
