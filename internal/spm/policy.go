package spm

import (
	"ftspm/internal/dram"
	"ftspm/internal/memtech"
)

// The DUE recovery policy as pure decisions: which action a
// detected-uncorrectable word gets, which RecoveryStats counter it
// bumps, and what it costs per word. The controller's access path and
// scrub walk (recoverDUE) and the packed soak engine (internal/simd)
// all decide through these functions; DESIGN.md §9 tabulates them.

// Residency classes of a word, the policy's input: what recovery finds
// at a word when it detects an uncorrectable error there. A RecordScrub
// snapshot holds one per word of each protected region.
const (
	// ScrubWordFree: no block resides over the word; recovery restores
	// it from its last stored payload.
	ScrubWordFree byte = iota
	// ScrubWordClean: a clean block resides there; recovery re-fetches
	// the word from the off-chip copy.
	ScrubWordClean
	// ScrubWordDirty: a dirty block resides there; recovery follows the
	// configured dirty-DUE policy.
	ScrubWordDirty
)

// RecoveryAction is what recovery does with one DUE word.
type RecoveryAction uint8

// Recovery actions.
const (
	// RecoverNone leaves the DUE standing: recovery is disabled.
	RecoverNone RecoveryAction = iota
	// RecoverRefetch re-fetches a clean word from the off-chip copy,
	// rewrites it and verifies it, retrying up to MaxRefetchRetries.
	RecoverRefetch
	// RecoverRollback restores a dirty word from the checkpoint under
	// DUERollback and charges RollbackCycles.
	RecoverRollback
	// RecoverEscalate consumes a dirty word under DUEAsSDC and counts
	// the escalation.
	RecoverEscalate
	// RecoverRestore rewrites a free-space word from its last stored
	// payload: its content is dead, but the latent error is cleared.
	RecoverRestore
)

// Rewrites reports whether the action rewrites the word from an intact
// copy, returning it to its fault-free codeword unless a cell is stuck.
func (a RecoveryAction) Rewrites() bool {
	return a == RecoverRefetch || a == RecoverRollback || a == RecoverRestore
}

// DUEAction picks the recovery action for a DUE word of the given
// residency class (a ScrubWord* constant). Callers with recovery
// disabled use RecoverNone instead.
func (rc RecoveryConfig) DUEAction(class byte) RecoveryAction {
	switch class {
	case ScrubWordClean:
		return RecoverRefetch
	case ScrubWordDirty:
		if rc.DirtyPolicy == DUERollback {
			return RecoverRollback
		}
		return RecoverEscalate
	default:
		return RecoverRestore
	}
}

// DUESite is where a DUE surfaced; each site has its own counters.
type DUESite uint8

// DUE sites.
const (
	// SiteAccess is a checked read on the program access path.
	SiteAccess DUESite = iota + 1
	// SiteScrub is a background scrub walk.
	SiteScrub
)

// DUECounter returns the counter of s that one DUE word bumps when
// recovery takes action a on it at site. repaired is false for a
// re-fetch whose verify never passed: the word stays a DUE. The access
// path reads resident words only, so it never restores a free word;
// were it to, the restore would count as a rollback.
func (s *RecoveryStats) DUECounter(site DUESite, a RecoveryAction, repaired bool) *uint64 {
	if site == SiteScrub {
		switch {
		case a == RecoverRefetch && repaired:
			return &s.ScrubRefetches
		case a == RecoverRollback || a == RecoverRestore:
			return &s.ScrubRestores
		default:
			return &s.ScrubDUEs
		}
	}
	switch {
	case a == RecoverRefetch && repaired:
		return &s.RefetchedWords
	case a == RecoverRollback || a == RecoverRestore:
		return &s.Rollbacks
	case a == RecoverEscalate:
		return &s.SDCEscalations
	default:
		return &s.UnrecoveredDUEs
	}
}

// WordCharges are a region's per-word recovery cycle costs: what one
// re-fetch attempt, RestoreWord and a ScrubWords repair charge there
// when no wear model retries the write.
type WordCharges struct {
	// Refetch is one re-fetch attempt: a one-word DRAM burst, the
	// region write and the verify read.
	Refetch memtech.Cycles
	// Restore is one word rewritten from its stored payload.
	Restore memtech.Cycles
	// Repair is the in-place rewrite of one word the scrubber corrected.
	Repair memtech.Cycles
}

// RecoveryCharges returns the region's per-word recovery charges under
// the off-chip memory timing d.
func (r *Region) RecoveryCharges(d dram.Config) WordCharges {
	write := r.bank.AccessLatency(memtech.WordBytes, true)
	return WordCharges{
		Refetch: d.FirstWordLatency + write + r.bank.AccessLatency(memtech.WordBytes, false),
		Restore: write,
		Repair:  write,
	}
}

// DUECharge returns the cycles recovery charges for one DUE word that
// takes action a in a region with charges wc. A re-fetch verifies on
// its first attempt when it repairs the word and makes all
// 1+MaxRefetchRetries attempts when it does not (only a stuck cell
// defeats it, and a stuck cell defeats every attempt alike).
func (rc RecoveryConfig) DUECharge(wc WordCharges, a RecoveryAction, repaired bool) memtech.Cycles {
	switch a {
	case RecoverRefetch:
		if repaired {
			return wc.Refetch
		}
		return wc.Refetch * memtech.Cycles(1+rc.MaxRefetchRetries)
	case RecoverRollback:
		return wc.Restore + rc.RollbackCycles
	case RecoverRestore:
		return wc.Restore
	default:
		return 0
	}
}
