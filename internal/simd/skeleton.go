// Package simd is the bit-parallel Monte-Carlo soak engine: it advances
// up to 64 independently-seeded fault scenarios through a single trace
// pass, one scenario per bit lane of machine words (SWAR).
//
// The key observation is that with no wear model attached, the
// controller's control flow — block residency, evictions, dirty bits,
// scrub timing — is a pure function of the access trace: particle
// strikes corrupt stored codewords, but every recovery action either
// restores the exact pre-fault content (re-fetch, rollback, scrub
// repair of a true single-bit upset) or leaves the word untouched, so
// the trajectory of *which* operations happen never depends on the
// strike history. One instrumented scalar run therefore yields a
// region-level operation skeleton (skeleton.go), and a packed engine
// (engine.go) replays that skeleton against 64 strike scenarios at
// once, tracking per-lane codeword deltas and classifying each faulted
// lane from its delta alone (ecc.PatternClassifier). Scenarios whose
// configuration breaks the shared-trajectory argument (a wear model, an
// operation the replay cannot reproduce) are rejected with
// ErrUnsupported, and the caller falls back to the scalar path — the
// packed engine is an optimization, never a semantic fork.
package simd

import (
	"context"
	"errors"
	"fmt"

	"ftspm/internal/ecc"
	"ftspm/internal/faults"
	"ftspm/internal/program"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
)

// ErrUnsupported reports a configuration or recorded operation outside
// the packed engine's shared-trajectory envelope; callers run the
// scalar simulator instead.
var ErrUnsupported = errors.New("simd: configuration unsupported by the packed engine")

// Declines with a named cause. Each wraps ErrUnsupported; callers that
// count declines by cause test for these with errors.Is.
var (
	ErrWear         = fmt.Errorf("%w: wear model attached", ErrUnsupported)
	ErrStorm        = fmt.Errorf("%w: storm injection model attached", ErrUnsupported)
	ErrAdaptive     = fmt.Errorf("%w: adaptive recovery attached", ErrUnsupported)
	ErrWideCodeword = fmt.Errorf("%w: codewords exceed one lane word", ErrUnsupported)
)

// opKind enumerates the recorded operation types.
type opKind uint8

const (
	opWrite opKind = iota + 1
	opAccessRead
	opEvictRead
	opScrub
)

// op is one recorded codeword-level operation. Region indices are
// global across both SPMs: instruction-SPM regions first, in
// configuration order, then data-SPM regions.
type op struct {
	kind opKind
	// class is the serving block's spm.ScrubWord* residency class at
	// read time (opAccessRead).
	class byte
	// region/word/words locate the touched interval (not for opScrub).
	region int32
	word   int32
	words  int32
	// snap indexes Skeleton.snaps (opScrub only).
	snap int32
	// atAccess is the 1-based access-event count the operation belongs
	// to; strikes drawn at access k land before the ops recorded at k.
	atAccess uint32
	// addrW is the DRAM word address written to word `word` (opWrite):
	// word+i receives dram.Value(addrW+i).
	addrW uint32
}

// regionState is the static per-region geometry the engine needs.
type regionState struct {
	codec    ecc.Codec
	classify ecc.PatternClassifier // nil for immune regions
	words    int
	immune   bool
	// charges are the region's per-word recovery costs, taken once
	// from spm so the replay never touches the latency models.
	charges spm.WordCharges
}

// Skeleton is one recorded fault-free trajectory of a (workload,
// structure) configuration: everything the packed engine needs to
// replay the run under 64 strike scenarios.
type Skeleton struct {
	regions []regionState
	ops     []op
	// snaps holds the scrub residency snapshots: snaps[i][region] is
	// the per-word spm.ScrubWord* class slice of each protected region
	// of the scrubbing controller (nil for regions the scrub skips).
	snaps [][][]byte

	accesses uint64
	// base is the fault-free recovery tally (scrub runs and their walk
	// cycles); every lane starts from it.
	base spm.RecoveryStats
	// baseBenign is the total auditable words across both SPMs: the
	// fault-free audit classifies every one of them Benign.
	baseBenign int

	recovery   spm.RecoveryConfig
	recoveryOn bool

	// Strike-surface geometry per SPM, in region order, for replaying
	// the injection RNG draw sequence.
	iSurf, dSurf []faults.RegionSurface
	iBits, dBits int
	iOff, dOff   int // global region index of each surface's region 0
}

// action returns the recovery action for a DUE word of the given
// residency class: the spm policy's, or none with recovery off.
func (sk *Skeleton) action(class byte) spm.RecoveryAction {
	if !sk.recoveryOn {
		return spm.RecoverNone
	}
	return sk.recovery.DUEAction(class)
}

// Accesses returns the trace's access-event count (every lane of every
// batch performs exactly this many accesses).
func (sk *Skeleton) Accesses() uint64 { return sk.accesses }

// builder accumulates the recording; ctlRecorder adapts it to one
// controller's spm.OpRecorder with a global region-index offset.
type builder struct {
	sk          *Skeleton
	access      uint32
	unsupported string
}

type ctlRecorder struct {
	b      *builder
	offset int
}

func (c *ctlRecorder) skip(region int) bool {
	return c.b.sk.regions[c.offset+region].immune
}

func (c *ctlRecorder) RecordWrite(region, wordIdx, words int, addrWord uint32) {
	// Ops on immune regions are skipped entirely: no strike ever lands
	// a delta there, so the replay has nothing to do. On FTSPM this
	// drops the STT-RAM traffic — the bulk of the op stream.
	if c.skip(region) {
		return
	}
	c.b.sk.ops = append(c.b.sk.ops, op{
		kind: opWrite, region: int32(c.offset + region),
		word: int32(wordIdx), words: int32(words),
		atAccess: c.b.access, addrW: addrWord,
	})
}

func (c *ctlRecorder) RecordAccessRead(region, wordIdx, words int, class byte) {
	if c.skip(region) {
		return
	}
	c.b.sk.ops = append(c.b.sk.ops, op{
		kind: opAccessRead, region: int32(c.offset + region),
		word: int32(wordIdx), words: int32(words),
		class: class, atAccess: c.b.access,
	})
}

func (c *ctlRecorder) RecordEvictRead(region, wordIdx, words int) {
	if c.skip(region) {
		return
	}
	c.b.sk.ops = append(c.b.sk.ops, op{
		kind: opEvictRead, region: int32(c.offset + region),
		word: int32(wordIdx), words: int32(words),
		atAccess: c.b.access,
	})
}

func (c *ctlRecorder) RecordScrub(classes [][]byte) {
	sk := c.b.sk
	snap := make([][]byte, len(sk.regions))
	for local, cl := range classes {
		if cl == nil {
			continue
		}
		cp := make([]byte, len(cl))
		copy(cp, cl)
		snap[c.offset+local] = cp
	}
	sk.snaps = append(sk.snaps, snap)
	sk.ops = append(sk.ops, op{
		kind: opScrub, snap: int32(len(sk.snaps) - 1), atAccess: c.b.access,
	})
}

func (c *ctlRecorder) RecordUnsupported(opName string) {
	if c.b.unsupported == "" {
		c.b.unsupported = opName
	}
}

// BuildSkeleton runs the configuration once, fault-free and
// instrumented, and returns the recorded trajectory. Configurations the
// packed engine cannot replay return an error wrapping ErrUnsupported.
func BuildSkeleton(ctx context.Context, prog *program.Program, cfg sim.Config, events []trace.Event) (*Skeleton, error) {
	if cfg.Wear != nil {
		// Wear makes write outcomes stochastic per trial, which forks
		// the control flow (retries, stuck cells, remaps) — the whole
		// shared-trajectory argument collapses.
		return nil, ErrWear
	}
	if cfg.Injection != nil && cfg.Injection.Storm != nil {
		// Correlated storms emit multi-word events from a stateful
		// process and couple into the wear scale; the per-lane strike
		// schedule (faults.PlanStrike) cannot express them.
		return nil, ErrStorm
	}
	if cfg.Recovery != nil && cfg.Recovery.Adaptive != nil {
		// Adaptive defenses make scrub timing and block placement
		// depend on each lane's error history, so lanes no longer
		// share one trajectory.
		return nil, ErrAdaptive
	}
	rcfg := cfg
	rcfg.Injection = nil // the recording run is fault-free by definition
	m, err := sim.New(prog, rcfg)
	if err != nil {
		return nil, err
	}

	sk := &Skeleton{recoveryOn: cfg.Recovery != nil}
	if cfg.Recovery != nil {
		sk.recovery = *cfg.Recovery
	}
	iRegions := m.InstSPM().Regions()
	dRegions := m.DataSPM().Regions()
	sk.iOff, sk.dOff = 0, len(iRegions)
	for _, r := range append(iRegions, dRegions...) {
		codec := r.Codec()
		immune := r.Kind().Immune()
		rs := regionState{
			codec:  codec,
			words:  r.Words(),
			immune: immune,
		}
		if !immune {
			if codec.CodeBits() > 64 {
				return nil, fmt.Errorf("%w (%s)", ErrWideCodeword, codec.Name())
			}
			cls, ok := codec.(ecc.PatternClassifier)
			if !ok {
				return nil, fmt.Errorf("%w: %s has no error-pattern classifier", ErrUnsupported, codec.Name())
			}
			rs.classify = cls
			rs.charges = r.RecoveryCharges(cfg.DRAM)
		}
		sk.regions = append(sk.regions, rs)
		sk.baseBenign += r.Words()
	}
	sk.iSurf = m.InstSPM().StrikeSurface()
	sk.dSurf = m.DataSPM().StrikeSurface()
	sk.iBits = faults.SurfaceBits(sk.iSurf)
	sk.dBits = faults.SurfaceBits(sk.dSurf)

	b := &builder{sk: sk}
	m.InstController().SetRecorder(&ctlRecorder{b: b, offset: sk.iOff})
	m.DataController().SetRecorder(&ctlRecorder{b: b, offset: sk.dOff})
	m.SetAccessProbe(func() { b.access++ })

	res, err := m.RunContext(ctx, trace.Replay(events))
	if err != nil {
		return nil, err
	}
	if b.unsupported != "" {
		return nil, fmt.Errorf("%w: recorded %s", ErrUnsupported, b.unsupported)
	}
	sk.accesses = res.Accesses
	sk.base = res.RecoveryTotals()
	return sk, nil
}
