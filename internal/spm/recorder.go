package spm

import "ftspm/internal/memtech"

// Op recording: the hook the packed soak engine (internal/simd) uses to
// capture one fault-free controller trajectory. With no wear model and
// no injected strikes the controller's control flow — residency,
// evictions, dirty bits, scrub timing — is fully deterministic, so one
// instrumented run yields a region-level op stream that a later packed
// pass can replay against 64 fault scenarios at once. The recorder sees
// every operation that touches stored codewords; anything it cannot
// replay (wear-driven write-verify faults, graceful degradation) is
// flagged through RecordUnsupported so the skeleton build can refuse.

// OpRecorder observes the codeword-level operations of one controller.
// Region indices are controller-local (the controller's region order);
// word indices are absolute within the region. Implementations must not
// retain the RecordScrub slices past the call.
type OpRecorder interface {
	// RecordWrite is an exact encode of address-derived values into
	// words [wordIdx, wordIdx+words): program writes and block DMA-ins.
	// Word wordIdx+i holds dram.Value(addrWord+i) afterwards.
	RecordWrite(region, wordIdx, words int, addrWord uint32)
	// RecordAccessRead is a checked read on the program access path,
	// with the serving block's residency class at read time
	// (ScrubWordClean or ScrubWordDirty), which decides the DUE
	// recovery action.
	RecordAccessRead(region, wordIdx, words int, class byte)
	// RecordEvictRead is a checked read whose detection outcome the
	// controller drops: eviction and unmap write-backs. Corrections
	// still repair the stored word (scrub-on-read); detections trigger
	// no recovery.
	RecordEvictRead(region, wordIdx, words int)
	// RecordScrub is a background scrub walk. classes[region][word]
	// holds the ScrubWord* residency class of every word of every
	// protected region (nil entries are regions the scrubber skips).
	RecordScrub(classes [][]byte)
	// RecordUnsupported reports an operation whose outcome the packed
	// replay cannot reproduce from the fault-free trajectory.
	RecordUnsupported(op string)
}

// SetRecorder attaches an op recorder to the controller (nil detaches).
// Recording is a build-time instrument: attach before the first access
// and run fault-free.
func (c *Controller) SetRecorder(rec OpRecorder) { c.rec = rec }

// scrubClasses snapshots the per-word residency class of every
// protected region for RecordScrub. Allocation here is fine: recording
// happens once per campaign configuration, never on the replay path.
func (c *Controller) scrubClasses() [][]byte {
	classes := make([][]byte, len(c.regions))
	for idx, r := range c.regions {
		if r.Kind().Protection() == memtech.Unprotected {
			continue
		}
		classes[idx] = make([]byte, r.Words())
	}
	for i := range c.resident {
		res := &c.resident[i]
		if !res.live || classes[res.region] == nil {
			continue
		}
		class := res.class()
		for w := res.baseWord; w < res.baseWord+res.words; w++ {
			classes[res.region][w] = class
		}
	}
	return classes
}
