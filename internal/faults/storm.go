package faults

import (
	"errors"
	"fmt"
	"math/rand"
)

// Correlated fault storms. The base soak model is memoryless: every
// access draws an independent strike with a fixed probability and an
// i.i.d. MBU multiplicity. Real failure modes cluster — thermal ramps
// and adversarial write streams drive STT-RAM write-failure bursts,
// and process variation makes upsets land in adjacent words. A
// StormProcess replaces the memoryless draw with a two-state
// Markov-modulated strike process (calm/storm intensities with
// geometric dwell times), spatially clustered multi-word events, a
// thermal wear-probability ramp, and an adversarial mode that aims at
// the hottest words of the access profile. Both the live simulator and
// PlanStorm consume the *same* process, so a planned schedule is
// byte-identical to a live run by construction rather than by RNG
// lockstep.

// ErrBadStormConfig reports an invalid StormConfig.
var ErrBadStormConfig = errors.New("faults: invalid storm config")

// StormConfig parameterizes a correlated fault storm.
//
// The process is a two-state Markov chain stepped once per access:
// in the calm state a strike fires with probability
// CalmStrikesPerAccess, in the storm state with
// StormStrikesPerAccess. State dwell times are geometric with means
// MeanCalmAccesses / MeanStormAccesses. Storm-state events corrupt
// SpatialSpan adjacent words (each word gets its own multiplicity
// draw from the campaign's MBU distribution), so a single event can
// defeat per-word SEC-DED. While storming, the transient
// write-failure probability of any attached wear model ramps
// linearly to ThermalFactor× over ThermalRampAccesses and decays the
// same way after the storm passes. With HotBias > 0, that fraction
// of strikes aims at the hottest profiled blocks instead of being
// bit-weighted over the whole surface.
type StormConfig struct {
	// CalmStrikesPerAccess is the calm-state strike probability per
	// access (the background rate; zero means calm is quiet).
	CalmStrikesPerAccess float64 `json:"calm_strikes_per_access"`
	// StormStrikesPerAccess is the storm-state strike probability
	// per access.
	StormStrikesPerAccess float64 `json:"storm_strikes_per_access"`
	// MeanCalmAccesses is the mean dwell time of the calm state, in
	// accesses (geometric distribution).
	MeanCalmAccesses float64 `json:"mean_calm_accesses"`
	// MeanStormAccesses is the mean dwell time of the storm state.
	MeanStormAccesses float64 `json:"mean_storm_accesses"`
	// SpatialSpan is how many adjacent words a storm-state event
	// corrupts (clipped at the end of the struck region). Calm-state
	// strikes always hit a single word.
	SpatialSpan int `json:"spatial_span"`
	// ThermalFactor scales the wear model's transient
	// write-failure probability at full storm heat. 1 disables the
	// thermal ramp.
	ThermalFactor float64 `json:"thermal_factor,omitempty"`
	// ThermalRampAccesses is how many accesses the wear scale takes
	// to ramp from 1 to ThermalFactor after storm onset (and back
	// down after it ends).
	ThermalRampAccesses uint64 `json:"thermal_ramp_accesses,omitempty"`
	// HotBias is the fraction of strikes aimed at the adversary's
	// hot windows (the hottest profiled blocks) instead of being
	// bit-weighted over the whole surface. 0 disables targeting.
	HotBias float64 `json:"hot_bias,omitempty"`
	// HotBlocks is how many of the hottest blocks (by profiled
	// access count) the adversary targets per address space.
	HotBlocks int `json:"hot_blocks,omitempty"`
}

// DefaultStorm returns a moderately violent storm: a quiet background
// with ~0.2 strikes/access bursts arriving every ~4k accesses and
// lasting ~400, each event spanning two adjacent words.
func DefaultStorm() StormConfig {
	return StormConfig{
		CalmStrikesPerAccess:  0.001,
		StormStrikesPerAccess: 0.2,
		MeanCalmAccesses:      4000,
		MeanStormAccesses:     400,
		SpatialSpan:           2,
		ThermalFactor:         1,
		ThermalRampAccesses:   256,
	}
}

// Normalized fills unset (zero) fields from DefaultStorm so partially
// specified configs (CLI flags, wire requests) resolve to one
// canonical form before hashing or planning. CalmStrikesPerAccess and
// HotBias keep their zero values — a quiet calm state and an
// untargeted storm are both meaningful.
func (c StormConfig) Normalized() StormConfig {
	def := DefaultStorm()
	if c.StormStrikesPerAccess <= 0 {
		c.StormStrikesPerAccess = def.StormStrikesPerAccess
	}
	if c.MeanCalmAccesses <= 0 {
		c.MeanCalmAccesses = def.MeanCalmAccesses
	}
	if c.MeanStormAccesses <= 0 {
		c.MeanStormAccesses = def.MeanStormAccesses
	}
	if c.SpatialSpan <= 0 {
		c.SpatialSpan = def.SpatialSpan
	}
	if c.ThermalFactor <= 0 {
		c.ThermalFactor = def.ThermalFactor
	}
	if c.ThermalRampAccesses == 0 {
		c.ThermalRampAccesses = def.ThermalRampAccesses
	}
	if c.HotBias > 0 && c.HotBlocks <= 0 {
		c.HotBlocks = 4
	}
	return c
}

// Validate reports whether the config is usable.
func (c StormConfig) Validate() error {
	switch {
	case c.CalmStrikesPerAccess < 0 || c.CalmStrikesPerAccess > 1:
		return fmt.Errorf("%w: calm strike probability %v outside [0,1]", ErrBadStormConfig, c.CalmStrikesPerAccess)
	case c.StormStrikesPerAccess <= 0 || c.StormStrikesPerAccess > 1:
		return fmt.Errorf("%w: storm strike probability %v outside (0,1]", ErrBadStormConfig, c.StormStrikesPerAccess)
	case c.MeanCalmAccesses < 1 || c.MeanStormAccesses < 1:
		return fmt.Errorf("%w: mean dwell times (%v calm, %v storm) must be >= 1 access", ErrBadStormConfig, c.MeanCalmAccesses, c.MeanStormAccesses)
	case c.SpatialSpan < 1:
		return fmt.Errorf("%w: spatial span %d must be >= 1", ErrBadStormConfig, c.SpatialSpan)
	case c.ThermalFactor < 1:
		return fmt.Errorf("%w: thermal factor %v must be >= 1", ErrBadStormConfig, c.ThermalFactor)
	case c.ThermalFactor > 1 && c.ThermalRampAccesses == 0:
		return fmt.Errorf("%w: thermal ramp needs a nonzero ramp length", ErrBadStormConfig)
	case c.HotBias < 0 || c.HotBias > 1:
		return fmt.Errorf("%w: hot bias %v outside [0,1]", ErrBadStormConfig, c.HotBias)
	case c.HotBias > 0 && c.HotBlocks < 1:
		return fmt.Errorf("%w: hot bias needs at least one hot block", ErrBadStormConfig)
	default:
		return nil
	}
}

// HotWindow is one adversarial target: a word range inside one region
// of one strike surface, covering a hot block's footprint. Surface
// indexes the process's surface list (the caller defines the order).
type HotWindow struct {
	Surface int `json:"surface"`
	Region  int `json:"region"`
	Start   int `json:"start"`
	Words   int `json:"words"`
}

// StormEvent is one corrupted word: bit i of Delta flips code bit i
// of the word, exactly like PlannedStrike. Delta is zero when the
// struck region is immune (the event is absorbed but still counted).
// A spatially clustered strike emits SpatialSpan consecutive events
// in one step.
type StormEvent struct {
	Surface int
	Region  int
	Word    int
	Delta   uint64
}

// PlannedStormEvent is a StormEvent stamped with the access index it
// fires at — the schedule form PlanStorm emits.
type PlannedStormEvent struct {
	AtAccess uint64 `json:"at_access"`
	Surface  int    `json:"surface"`
	Region   int    `json:"region"`
	Word     int    `json:"word"`
	Delta    uint64 `json:"delta"`
}

// StormProcess is the stateful generator: one instance drives one
// run, stepped exactly once per simulated access. All randomness
// comes from a single seeded rand.Rand with a fixed per-step draw
// order (state transition, then strike, then targeting), so two
// processes built from identical arguments emit identical event
// sequences.
type StormProcess struct {
	cfg      StormConfig
	dist     MBUDistribution
	rng      *rand.Rand
	surfaces [][]RegionSurface
	bits     []int // per-surface total bits
	total    int   // all surfaces
	hot      []HotWindow
	hotBits  int

	storming bool
	access   uint64
	ramp     float64 // thermal progress in [0,1]
	events   []StormEvent
}

// NewStormProcess builds a process over the given strike surfaces.
// Surfaces and hot windows must describe the same geometry the run
// injects into; windows are validated against it.
func NewStormProcess(cfg StormConfig, dist MBUDistribution, seed int64, surfaces [][]RegionSurface, hot []HotWindow) (*StormProcess, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	p := &StormProcess{
		cfg:      cfg,
		dist:     dist,
		rng:      rand.New(rand.NewSource(seed)),
		surfaces: surfaces,
		bits:     make([]int, len(surfaces)),
		events:   make([]StormEvent, 0, cfg.SpatialSpan),
	}
	for i, s := range surfaces {
		p.bits[i] = SurfaceBits(s)
		p.total += p.bits[i]
	}
	if p.total <= 0 {
		return nil, fmt.Errorf("%w: empty strike surface", ErrBadStormConfig)
	}
	for _, w := range hot {
		if w.Surface < 0 || w.Surface >= len(surfaces) {
			return nil, fmt.Errorf("%w: hot window surface %d out of range", ErrBadStormConfig, w.Surface)
		}
		regions := surfaces[w.Surface]
		if w.Region < 0 || w.Region >= len(regions) {
			return nil, fmt.Errorf("%w: hot window region %d out of range", ErrBadStormConfig, w.Region)
		}
		if w.Words <= 0 || w.Start < 0 || w.Start+w.Words > regions[w.Region].Words {
			return nil, fmt.Errorf("%w: hot window [%d,%d) outside region of %d words", ErrBadStormConfig, w.Start, w.Start+w.Words, regions[w.Region].Words)
		}
		p.hot = append(p.hot, w)
		p.hotBits += w.Words * regions[w.Region].CodeBits
	}
	return p, nil
}

// Accesses returns how many steps the process has taken.
func (p *StormProcess) Accesses() uint64 { return p.access }

// WearScale returns the current thermal multiplier for the wear
// model's transient write-failure probability: 1 when cool, ramping
// linearly to ThermalFactor while the storm persists.
func (p *StormProcess) WearScale() float64 {
	return 1 + (p.cfg.ThermalFactor-1)*p.ramp
}

// Step advances the process one access and returns the strike events
// that fire on it (empty most steps). The returned slice is reused by
// the next Step.
func (p *StormProcess) Step() []StormEvent {
	p.access++
	// 1. State transition (one draw, every step).
	pSwitch := 1 / p.cfg.MeanCalmAccesses
	if p.storming {
		pSwitch = 1 / p.cfg.MeanStormAccesses
	}
	if p.rng.Float64() < pSwitch {
		p.storming = !p.storming
	}
	// 2. Thermal ramp (no draws).
	if p.cfg.ThermalFactor > 1 {
		delta := 1 / float64(p.cfg.ThermalRampAccesses)
		if p.storming {
			p.ramp += delta
			if p.ramp > 1 {
				p.ramp = 1
			}
		} else {
			p.ramp -= delta
			if p.ramp < 0 {
				p.ramp = 0
			}
		}
	}
	// 3. Strike draw (one draw, every step).
	intensity := p.cfg.CalmStrikesPerAccess
	span := 1
	if p.storming {
		intensity = p.cfg.StormStrikesPerAccess
		span = p.cfg.SpatialSpan
	}
	p.events = p.events[:0]
	if p.rng.Float64() >= intensity {
		return p.events
	}
	// 4. Targeting: adversarial hot-window pick or bit-weighted
	// global pick.
	var si, ri, word int
	if p.hotBits > 0 && p.cfg.HotBias > 0 && p.rng.Float64() < p.cfg.HotBias {
		si, ri, word = p.pickHot()
	} else {
		si, ri, word = p.pickGlobal()
	}
	// 5. Corrupt span adjacent words, clipped at the region end.
	// Each word draws its own multiplicity, like independent cells
	// of one physical event.
	r := p.surfaces[si][ri]
	for i := 0; i < span && word+i < r.Words; i++ {
		mult := p.dist.Sample(p.rng)
		ev := StormEvent{Surface: si, Region: ri, Word: word + i}
		if !r.Immune {
			if mult > r.CodeBits {
				mult = r.CodeBits
			}
			start := p.rng.Intn(r.CodeBits)
			for b := 0; b < mult; b++ {
				ev.Delta ^= 1 << uint((start+b)%r.CodeBits)
			}
		}
		p.events = append(p.events, ev)
	}
	return p.events
}

// pickGlobal draws a bit-weighted (surface, region, word) location
// over all surfaces, mirroring PlanStrike's location draw.
func (p *StormProcess) pickGlobal() (si, ri, word int) {
	pick := p.rng.Intn(p.total)
	for i, regions := range p.surfaces {
		if pick >= p.bits[i] {
			pick -= p.bits[i]
			continue
		}
		for j, r := range regions {
			bits := r.Words * r.CodeBits
			if pick >= bits {
				pick -= bits
				continue
			}
			return i, j, pick / r.CodeBits
		}
	}
	return 0, 0, 0 // unreachable with consistent totals
}

// pickHot draws a bit-weighted location restricted to the hot
// windows.
func (p *StormProcess) pickHot() (si, ri, word int) {
	pick := p.rng.Intn(p.hotBits)
	for _, w := range p.hot {
		cb := p.surfaces[w.Surface][w.Region].CodeBits
		bits := w.Words * cb
		if pick >= bits {
			pick -= bits
			continue
		}
		return w.Surface, w.Region, w.Start + pick/cb
	}
	return 0, 0, 0 // unreachable with a consistent hotBits
}

// PlanStorm runs a fresh process for the given number of accesses and
// returns its full schedule — the analogue of PlanStrike for
// correlated storms. Because the plan and a live run consume the same
// StormProcess, equal arguments yield bit-identical fault sequences.
func PlanStorm(cfg StormConfig, dist MBUDistribution, seed int64, surfaces [][]RegionSurface, hot []HotWindow, accesses uint64) ([]PlannedStormEvent, error) {
	p, err := NewStormProcess(cfg, dist, seed, surfaces, hot)
	if err != nil {
		return nil, err
	}
	var plan []PlannedStormEvent
	for p.access < accesses {
		for _, ev := range p.Step() {
			plan = append(plan, PlannedStormEvent{
				AtAccess: p.access,
				Surface:  ev.Surface,
				Region:   ev.Region,
				Word:     ev.Word,
				Delta:    ev.Delta,
			})
		}
	}
	return plan, nil
}
