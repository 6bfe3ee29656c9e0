// Package spm models the ScratchPad Memory hardware of FTSPM: protection
// regions with real encoded storage (through the ecc codecs), the hybrid
// SPM assembled from them (Fig. 1), and the SPM controller that performs
// the on-line phase — mapping blocks in and out of regions with DMA
// transfers against the off-chip memory.
package spm

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"ftspm/internal/ecc"
	"ftspm/internal/faults"
	"ftspm/internal/memtech"
)

// RegionKind identifies one of the protection levels of the proposed
// structure (Table IV legend).
type RegionKind int

// Region kinds.
const (
	// RegionSTT is STT-RAM: immune to particle strikes, slow and
	// expensive writes, limited write endurance.
	RegionSTT RegionKind = iota + 1
	// RegionECC is SEC-DED-protected SRAM: corrects 1-bit, detects
	// 2-bit upsets, 2-cycle accesses.
	RegionECC
	// RegionParity is parity-protected SRAM: detects 1-bit upsets,
	// 1-cycle accesses.
	RegionParity
	// RegionPlain is unprotected SRAM (used by the cache model and as a
	// reference point; no Table IV SPM uses it).
	RegionPlain
	// RegionDMR is duplicated SRAM (dual modular redundancy) — the
	// related-work duplication scheme [3] implemented as a comparison
	// structure: every word stored twice, reads compare the copies.
	RegionDMR
)

// String implements fmt.Stringer.
func (k RegionKind) String() string {
	switch k {
	case RegionSTT:
		return "STT-RAM"
	case RegionECC:
		return "SRAM(ECC)"
	case RegionParity:
		return "SRAM(parity)"
	case RegionPlain:
		return "SRAM"
	case RegionDMR:
		return "SRAM(DMR)"
	default:
		return fmt.Sprintf("RegionKind(%d)", int(k))
	}
}

// Valid reports whether k is a known kind.
func (k RegionKind) Valid() bool {
	switch k {
	case RegionSTT, RegionECC, RegionParity, RegionPlain, RegionDMR:
		return true
	default:
		return false
	}
}

// Technology returns the cell technology of the kind.
func (k RegionKind) Technology() memtech.Technology {
	if k == RegionSTT {
		return memtech.STTRAM
	}
	return memtech.SRAM
}

// Protection returns the memtech protection level of the kind.
func (k RegionKind) Protection() memtech.Protection {
	switch k {
	case RegionECC:
		return memtech.SECDED
	case RegionParity:
		return memtech.Parity
	case RegionDMR:
		return memtech.DMR
	default:
		return memtech.Unprotected
	}
}

// Immune reports whether cells of this kind ignore particle strikes
// (STT-RAM per [9]).
func (k RegionKind) Immune() bool { return k == RegionSTT }

// VulnerabilityWeight returns the per-strike probability that an upset in
// this region escapes correction — the SDC+DUE probability the paper's
// equations (1)-(7) assign to the region:
//
//	STT-RAM      → 0            (immune)
//	SEC-DED SRAM → P(2) + P(≥3) (1-bit upsets are corrected)
//	parity SRAM  → P(1) + P(≥2) = 1 (nothing is correctable)
//	plain SRAM   → 1            (everything is silent corruption)
func (k RegionKind) VulnerabilityWeight(d faults.MBUDistribution) float64 {
	switch k {
	case RegionSTT:
		return 0
	case RegionECC:
		return d.PAtLeast(2)
	default:
		// Parity and plain SRAM: every upset escapes or is merely
		// detected; DMR detects nearly everything but recovers nothing,
		// so its DUE mass still counts toward eq. (1).
		return d.PAtLeast(1)
	}
}

func (k RegionKind) newCodec() (ecc.Codec, error) {
	switch k {
	case RegionECC:
		return ecc.NewHamming(32)
	case RegionParity:
		return ecc.NewParity(32)
	case RegionSTT, RegionPlain:
		return ecc.NewRaw(32)
	case RegionDMR:
		return ecc.NewDMR(32)
	default:
		return nil, fmt.Errorf("spm: no codec for %v", k)
	}
}

// RegionStats counts traffic and observed error events in one region.
type RegionStats struct {
	ReadAccesses, WriteAccesses uint64
	WordsRead, WordsWritten     uint64
	Energy                      memtech.Picojoules
	CorrectedErrors             uint64
	DetectedErrors              uint64
	// SilentReads counts reads that returned wrong data without any
	// error signal — consumed silent corruption. The hardware cannot
	// observe this; the simulator's golden copy can, which is what makes
	// empirical AVF validation possible (experiments.ValidateAVF).
	SilentReads uint64
}

// Errors returned by region and SPM operations.
var (
	ErrBadRegionSize = errors.New("spm: region size must be a positive multiple of the word size")
	ErrBadRegionKind = errors.New("spm: unknown region kind")
	ErrOutOfRange    = errors.New("spm: access outside region")
)

// Region is one contiguous protection region with encoded backing store.
type Region struct {
	kind   RegionKind
	bank   memtech.Bank
	codec  ecc.Codec
	words  []ecc.Bits // encoded codewords, one per 32-bit data word
	golden []uint32   // last written payloads, for audit classification
	writes []uint64   // per-word write counters (endurance analysis)
	stats  RegionStats
	// wear, when non-nil, makes writes stochastically unreliable
	// (STT-RAM write failures and wear-out; see WearConfig).
	wear *wearModel
	// stuckMask/stuckVal track permanently-failed cells per word (nil
	// until the first cell sticks). Bits under the mask are frozen at
	// the corresponding val bits on every store.
	stuckMask []ecc.Bits
	stuckVal  []ecc.Bits
	// suspect is a bitset of the words whose codeword may differ from
	// codec.Encode(golden[w]); nSuspect counts its set bits (nil until
	// the first strike, stuck cell or failed write). A word not marked
	// holds exactly that codeword, so it decodes Clean to golden[w]:
	// reads copy golden for it, and scrub and audit skip its decode.
	// The modelled hardware still decodes every word, so latency,
	// energy and stats are charged unchanged (DESIGN.md §11).
	suspect  []uint64
	nSuspect int
	// retired marks words the controller has removed from service
	// after recurring faults (nil until the first retirement). Retired
	// words are skipped by scrub and audit: they hold dead cells, not
	// live data.
	retired []bool
	// readBuf is the reusable payload buffer handed out by ReadChecked:
	// it grows to the largest burst ever read and is then recycled, so
	// the steady-state read path allocates nothing.
	readBuf []uint32
}

// wearModel is the per-region instantiation of a WearConfig with its
// own deterministic random stream.
type wearModel struct {
	cfg WearConfig
	rng *rand.Rand
	// scale multiplies the transient write-failure probability; the
	// storm thermal ramp (faults.StormProcess.WearScale) drives it
	// between 1 and the configured ThermalFactor.
	scale float64
}

// writeFailProb returns the thermally scaled transient failure
// probability, clamped to 1.
func (m *wearModel) writeFailProb() float64 {
	p := m.cfg.WriteFailProb * m.scale
	if p > 1 {
		p = 1
	}
	return p
}

// NewRegion builds a region of the given kind and byte size.
func NewRegion(kind RegionKind, sizeBytes int) (*Region, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadRegionKind, int(kind))
	}
	if sizeBytes <= 0 || sizeBytes%memtech.WordBytes != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadRegionSize, sizeBytes)
	}
	bank, err := memtech.EstimateBank(kind.Technology(), kind.Protection(), sizeBytes)
	if err != nil {
		return nil, err
	}
	codec, err := kind.newCodec()
	if err != nil {
		return nil, err
	}
	n := sizeBytes / memtech.WordBytes
	r := &Region{
		kind:   kind,
		bank:   bank,
		codec:  codec,
		words:  make([]ecc.Bits, n),
		golden: make([]uint32, n),
		writes: make([]uint64, n),
	}
	// Power-on state: every word holds an encoded zero so decodes are
	// consistent from the start.
	zero := codec.Encode(ecc.BitsFromUint64(0))
	for i := range r.words {
		r.words[i] = zero
	}
	return r, nil
}

// Kind returns the region's protection kind.
func (r *Region) Kind() RegionKind { return r.kind }

// Codec returns the region's live error-coding codec, shared with the
// packed soak engine so its per-lane classification and the stored
// words stay codeword-compatible by construction.
func (r *Region) Codec() ecc.Codec { return r.codec }

// SizeBytes returns the region capacity.
func (r *Region) SizeBytes() int { return len(r.words) * memtech.WordBytes }

// Words returns the region capacity in 32-bit words.
func (r *Region) Words() int { return len(r.words) }

// Stats returns a copy of the region counters.
func (r *Region) Stats() RegionStats { return r.stats }

// WriteCount returns the accumulated writes to the word at wordIdx.
func (r *Region) WriteCount(wordIdx int) uint64 {
	if wordIdx < 0 || wordIdx >= len(r.writes) {
		return 0
	}
	return r.writes[wordIdx]
}

// MaxWriteCount returns the hottest word's write count.
func (r *Region) MaxWriteCount() uint64 {
	var m uint64
	for _, w := range r.writes {
		if w > m {
			m = w
		}
	}
	return m
}

// ReadOutcome reports the detection events of one checked read: what
// the protection circuit signalled to the controller, per word.
type ReadOutcome struct {
	// Corrected counts words whose single-bit errors were repaired
	// in-line (DREs).
	Corrected int
	// Detected lists the absolute word indices with uncorrectable
	// detected errors (DUEs) — the controller's recovery triggers.
	Detected []int
}

// Read decodes n words starting at wordIdx, charging latency and energy,
// and returns the payloads. Observed error events (corrections,
// detections) are counted in the region stats. The returned slice is a
// reusable scratch buffer owned by the region: it is valid until the
// next Read/ReadChecked on the same region, so callers that need the
// data past that point must copy it.
func (r *Region) Read(wordIdx, n int) ([]uint32, memtech.Cycles, error) {
	out, cycles, _, err := r.ReadChecked(wordIdx, n)
	return out, cycles, err
}

// ReadChecked is Read surfacing the per-word detection outcomes, so the
// controller can trigger recovery instead of silently carrying on. The
// returned payload slice follows the Read scratch-buffer contract.
func (r *Region) ReadChecked(wordIdx, n int) ([]uint32, memtech.Cycles, ReadOutcome, error) {
	var oc ReadOutcome
	if wordIdx < 0 || n < 0 || wordIdx+n > len(r.words) {
		return nil, 0, oc, fmt.Errorf("%w: read [%d,+%d) of %d", ErrOutOfRange, wordIdx, n, len(r.words))
	}
	if cap(r.readBuf) < n {
		r.readBuf = make([]uint32, n)
	}
	out := r.readBuf[:n]
	copy(out, r.golden[wordIdx:wordIdx+n])
	if r.nSuspect > 0 {
		for i := range out {
			if w := wordIdx + i; r.isSuspect(w) {
				out[i] = r.decodeRead(w, &oc)
			}
		}
	}
	r.stats.ReadAccesses++
	r.stats.WordsRead += uint64(n)
	e := r.bank.AccessEnergy(n*memtech.WordBytes, false)
	r.stats.Energy += e
	return out, r.bank.AccessLatency(n*memtech.WordBytes, false), oc, nil
}

// decodeRead is the read decode of one suspect word: it counts the
// word's error event into the stats and oc and returns the payload the
// protection circuit delivers.
func (r *Region) decodeRead(w int, oc *ReadOutcome) uint32 {
	data, status := r.codec.Decode(r.words[w])
	v := uint32(data.Uint64())
	switch status {
	case ecc.Corrected:
		r.stats.CorrectedErrors++
		oc.Corrected++
		// Correction repairs the stored word too (scrub-on-read);
		// stuck cells stay stuck.
		r.store(w, v)
	case ecc.Detected:
		r.stats.DetectedErrors++
		oc.Detected = append(oc.Detected, w)
		return v
	}
	if v != r.golden[w] {
		r.stats.SilentReads++
	}
	return v
}

// WriteOutcome reports the write-verify events of one checked write.
type WriteOutcome struct {
	// Retries counts write attempts beyond the first across the
	// written words (transient STT-RAM switch failures caught by
	// write-verify; their latency and energy are already charged).
	Retries int
	// Failed lists the absolute word indices whose stored codeword
	// still differs from the intended one after all retries —
	// permanent stuck cells or an exhausted retry budget. These are
	// the graceful-degradation triggers.
	Failed []int
}

// Write encodes values into consecutive words starting at wordIdx,
// charging latency and energy and bumping the per-word write counters.
func (r *Region) Write(wordIdx int, values []uint32) (memtech.Cycles, error) {
	cycles, _, err := r.WriteChecked(wordIdx, values)
	return cycles, err
}

// WriteChecked is Write surfacing write-verify outcomes. Under a wear
// model (EnableWear) each word write can fail transiently — the verify
// read catches it and the write retries, charging one extra write per
// retry — and can permanently stick a cell at its current value.
// Without wear, rewriting a clean word's golden payload skips the
// encode; latency, energy and counters are charged as for any write.
func (r *Region) WriteChecked(wordIdx int, values []uint32) (memtech.Cycles, WriteOutcome, error) {
	var oc WriteOutcome
	n := len(values)
	if wordIdx < 0 || wordIdx+n > len(r.words) {
		return 0, oc, fmt.Errorf("%w: write [%d,+%d) of %d", ErrOutOfRange, wordIdx, n, len(r.words))
	}
	for i, v := range values {
		w := wordIdx + i
		if r.wear == nil && v == r.golden[w] && !r.isSuspect(w) {
			// A clean word already holds codec.Encode(golden[w]), and
			// without wear the store cannot fail or stick a cell: the
			// rewrite leaves the codeword as it is.
			r.writes[w]++
			continue
		}
		enc := r.codec.Encode(ecc.BitsFromUint64(uint64(v)))
		if r.wear != nil && r.wear.cfg.StuckAtProb > 0 &&
			r.wear.rng.Float64() < r.wear.cfg.StuckAtProb {
			// Wear-out: one cell of the word sticks at whatever it
			// holds right now.
			bit := r.wear.rng.Intn(r.codec.CodeBits())
			r.setStuck(w, bit, r.words[w].Get(bit))
		}
		stored := enc
		if r.wear != nil && r.wear.cfg.WriteFailProb > 0 {
			failProb := r.wear.writeFailProb()
			retries := 0
			for r.wear.rng.Float64() < failProb {
				if retries >= r.wear.cfg.MaxWriteRetries {
					// Retry budget exhausted: one cell is left
					// unswitched for this write.
					stored = stored.Flip(r.wear.rng.Intn(r.codec.CodeBits()))
					break
				}
				retries++
			}
			oc.Retries += retries
		}
		// Stuck cells override everything the write driver attempted.
		if r.stuckMask != nil {
			stored = faults.ApplyStuckAt(stored, r.stuckMask[w], r.stuckVal[w])
		}
		r.words[w] = stored
		r.golden[w] = v
		r.writes[w]++
		r.setSuspect(w, stored != enc)
		if stored != enc {
			oc.Failed = append(oc.Failed, w)
		}
	}
	r.stats.WriteAccesses++
	r.stats.WordsWritten += uint64(n)
	e := r.bank.AccessEnergy(n*memtech.WordBytes, true)
	cycles := r.bank.AccessLatency(n*memtech.WordBytes, true)
	if oc.Retries > 0 {
		// Each retry re-drives one word: one extra write latency and
		// one word's write energy.
		cycles += r.bank.WriteLatency * memtech.Cycles(oc.Retries)
		e += r.bank.AccessEnergy(memtech.WordBytes, true) * memtech.Picojoules(oc.Retries)
	}
	r.stats.Energy += e
	return cycles, oc, nil
}

// store writes the codeword of payload v into the backing array,
// honouring any permanently-stuck cells. Every repair or restore must
// go through here once a word may hold stuck cells. The word is clean
// afterwards exactly when v is its golden payload and no stuck cell
// altered the codeword.
func (r *Region) store(w int, v uint32) {
	code := r.codec.Encode(ecc.BitsFromUint64(uint64(v)))
	stored := code
	if r.stuckMask != nil {
		stored = faults.ApplyStuckAt(code, r.stuckMask[w], r.stuckVal[w])
	}
	r.words[w] = stored
	r.setSuspect(w, stored != code || v != r.golden[w])
}

// isSuspect reports whether word w may differ from the codeword of its
// golden payload.
func (r *Region) isSuspect(w int) bool {
	return r.suspect != nil && r.suspect[w>>6]&(1<<(uint(w)&63)) != 0
}

// setSuspect marks word w suspect or clean, materializing the bitset
// on the first mark. Only a store that provably lands
// codec.Encode(golden[w]) may clear a mark.
func (r *Region) setSuspect(w int, suspect bool) {
	bit := uint64(1) << (uint(w) & 63)
	if suspect {
		if r.suspect == nil {
			r.suspect = make([]uint64, (len(r.words)+63)/64)
		}
		if r.suspect[w>>6]&bit == 0 {
			r.suspect[w>>6] |= bit
			r.nSuspect++
		}
	} else if r.nSuspect > 0 && r.suspect[w>>6]&bit != 0 {
		r.suspect[w>>6] &^= bit
		r.nSuspect--
	}
}

// setStuck freezes one cell of the word at val, materializing the
// stuck-cell arrays on first use.
func (r *Region) setStuck(w, bit int, val bool) {
	if r.stuckMask == nil {
		r.stuckMask = make([]ecc.Bits, len(r.words))
		r.stuckVal = make([]ecc.Bits, len(r.words))
	}
	r.stuckMask[w] = r.stuckMask[w].Set(bit, true)
	r.stuckVal[w] = r.stuckVal[w].Set(bit, val)
	r.words[w] = faults.ApplyStuckAt(r.words[w], r.stuckMask[w], r.stuckVal[w])
	r.setSuspect(w, true)
}

// EnableWear attaches a write-unreliability model to the region with a
// deterministic random stream derived from seed. Intended for STT-RAM
// regions (SPM.EnableWear applies it per technology).
func (r *Region) EnableWear(cfg WearConfig, seed int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.wear = &wearModel{cfg: cfg, rng: rand.New(rand.NewSource(seed)), scale: 1}
	return nil
}

// SetWearScale sets the thermal multiplier on the wear model's
// transient write-failure probability (no-op without a wear model).
// The storm process drives it between 1 and ThermalFactor.
func (r *Region) SetWearScale(scale float64) {
	if r.wear != nil && scale >= 0 {
		r.wear.scale = scale
	}
}

// ApplyStrikeDelta XORs a precomputed strike cluster into the stored
// codeword — the apply half of faults.PlannedStrike / StormEvent,
// where bit i of delta flips code bit i. Immune regions absorb the
// event; a zero delta is a no-op.
func (r *Region) ApplyStrikeDelta(wordIdx int, delta uint64) error {
	if wordIdx < 0 || wordIdx >= len(r.words) {
		return fmt.Errorf("%w: word %d of %d", ErrOutOfRange, wordIdx, len(r.words))
	}
	if delta == 0 || r.kind.Immune() {
		return nil
	}
	r.words[wordIdx] = r.words[wordIdx].Xor(ecc.BitsFromUint64(delta))
	r.setSuspect(wordIdx, true)
	return nil
}

// InjectStuckAt permanently sticks one cell of the word at val — the
// deterministic fault-seeding hook for degradation tests and soak
// campaigns (the probabilistic path is WearConfig.StuckAtProb).
func (r *Region) InjectStuckAt(wordIdx, bit int, val bool) error {
	if wordIdx < 0 || wordIdx >= len(r.words) {
		return fmt.Errorf("%w: word %d of %d", ErrOutOfRange, wordIdx, len(r.words))
	}
	if bit < 0 || bit >= r.codec.CodeBits() {
		return fmt.Errorf("%w: bit %d of %d", ErrOutOfRange, bit, r.codec.CodeBits())
	}
	r.setStuck(wordIdx, bit, val)
	return nil
}

// WordHasStuck reports whether the word holds at least one
// permanently-stuck cell.
func (r *Region) WordHasStuck(wordIdx int) bool {
	if r.stuckMask == nil || wordIdx < 0 || wordIdx >= len(r.words) {
		return false
	}
	return !r.stuckMask[wordIdx].IsZero()
}

// RetireWord removes a word from service: scrub and audit skip it from
// now on. The controller pairs this with withholding the word from its
// free lists, so nothing is ever placed there again.
func (r *Region) RetireWord(wordIdx int) error {
	if wordIdx < 0 || wordIdx >= len(r.words) {
		return fmt.Errorf("%w: word %d of %d", ErrOutOfRange, wordIdx, len(r.words))
	}
	if r.retired == nil {
		r.retired = make([]bool, len(r.words))
	}
	r.retired[wordIdx] = true
	return nil
}

// IsRetired reports whether the word has been removed from service.
func (r *Region) IsRetired(wordIdx int) bool {
	return r.retired != nil && wordIdx >= 0 && wordIdx < len(r.words) && r.retired[wordIdx]
}

// RetiredWordCount returns the number of retired words.
func (r *Region) RetiredWordCount() int {
	n := 0
	for _, ret := range r.retired {
		if ret {
			n++
		}
	}
	return n
}

// Golden returns the intended payloads of n words starting at wordIdx:
// what the word would hold absent faults. A real controller recovers
// these from its write buffer, the off-chip copy, or the ECC machinery;
// the simulator's golden array stands in for all three. Used by the
// graceful-degradation migration path, which must move *correct* data
// out of a failing region.
func (r *Region) Golden(wordIdx, n int) ([]uint32, error) {
	if wordIdx < 0 || n < 0 || wordIdx+n > len(r.words) {
		return nil, fmt.Errorf("%w: golden [%d,+%d) of %d", ErrOutOfRange, wordIdx, n, len(r.words))
	}
	out := make([]uint32, n)
	copy(out, r.golden[wordIdx:wordIdx+n])
	return out, nil
}

// DrainWords reads the intended payloads of n words starting at wordIdx
// for migration out of the region, charging a full read but bypassing
// the decoder: the controller already knows the interval is faulty (that
// is why it is migrating), so re-classifying the same words would
// double-count error events. Returns the golden payloads and the read
// latency.
func (r *Region) DrainWords(wordIdx, n int) ([]uint32, memtech.Cycles, error) {
	out, err := r.Golden(wordIdx, n)
	if err != nil {
		return nil, 0, err
	}
	r.stats.ReadAccesses++
	r.stats.WordsRead += uint64(n)
	r.stats.Energy += r.bank.AccessEnergy(n*memtech.WordBytes, false)
	return out, r.bank.AccessLatency(n*memtech.WordBytes, false), nil
}

// RestoreWord rewrites one word from its golden copy — the simulator's
// stand-in for a checkpoint restore — charging one word write's energy
// (its latency is WordCharges.Restore). Stuck cells stay stuck, so
// restoring a word with permanent faults may still leave it corrupt.
func (r *Region) RestoreWord(wordIdx int) error {
	if wordIdx < 0 || wordIdx >= len(r.words) {
		return fmt.Errorf("%w: word %d of %d", ErrOutOfRange, wordIdx, len(r.words))
	}
	r.store(wordIdx, r.golden[wordIdx])
	r.writes[wordIdx]++
	r.stats.WriteAccesses++
	r.stats.WordsWritten++
	r.stats.Energy += r.bank.AccessEnergy(memtech.WordBytes, true)
	return nil
}

// InjectStrike flips a cluster of `multiplicity` adjacent bits in the
// stored codeword at wordIdx. STT-RAM regions are immune: the strike is
// absorbed and the word is unchanged. It returns true when bits actually
// flipped.
func (r *Region) InjectStrike(rng *rand.Rand, wordIdx, multiplicity int) (bool, error) {
	if wordIdx < 0 || wordIdx >= len(r.words) {
		return false, fmt.Errorf("%w: word %d of %d", ErrOutOfRange, wordIdx, len(r.words))
	}
	if r.kind.Immune() {
		return false, nil
	}
	r.words[wordIdx] = faults.InjectCluster(rng, r.words[wordIdx], r.codec.CodeBits(), multiplicity)
	r.setSuspect(wordIdx, true)
	return true, nil
}

// ScrubWords decodes every word and rewrites the ones with correctable
// errors, clearing accumulated single-bit upsets before a second strike
// can turn them into uncorrectable ones. It charges a full-region read
// plus one write per repaired word and returns the repair count and the
// absolute word indices of the uncorrectable words it found, so the
// controller can recover them (recoverDUE). Retired words are skipped:
// their cells are out of service. Only suspect words are decoded; a
// clean word would decode Clean and need nothing, though its read is
// still charged. Scrubbing is an extension beyond the paper (its
// Section VI future-work direction of strengthening the SRAM regions);
// see experiments.AblationScrubbing for the quantified effect.
func (r *Region) ScrubWords() (repaired int, detected []int, cycles memtech.Cycles) {
	cycles = r.bank.AccessLatency(len(r.words)*memtech.WordBytes, false)
	r.stats.ReadAccesses++
	r.stats.WordsRead += uint64(len(r.words))
	r.stats.Energy += r.bank.AccessEnergy(len(r.words)*memtech.WordBytes, false)
	for k, set := range r.suspect {
		for ; set != 0; set &= set - 1 {
			i := k<<6 + bits.TrailingZeros64(set)
			if r.IsRetired(i) {
				continue
			}
			data, status := r.codec.Decode(r.words[i])
			switch status {
			case ecc.Corrected:
				r.store(i, uint32(data.Uint64()))
				r.writes[i]++
				repaired++
				r.stats.CorrectedErrors++
				cycles += r.bank.AccessLatency(memtech.WordBytes, true)
				r.stats.Energy += r.bank.AccessEnergy(memtech.WordBytes, true)
				r.stats.WordsWritten++
			case ecc.Detected:
				detected = append(detected, i)
				r.stats.DetectedErrors++
			}
		}
	}
	return repaired, detected, cycles
}

// Audit decodes every word and classifies it against the last written
// payload, without charging energy or disturbing the stats: the
// fault-injection campaign's ground-truth check. Clean words are
// Benign without a decode.
func (r *Region) Audit() faults.Tally {
	var t faults.Tally
	for i, w := range r.words {
		if r.IsRetired(i) {
			// Retired words hold dead cells, not live data; counting
			// them would charge degradation twice (it already shows up
			// as RetiredWords in the recovery stats).
			continue
		}
		if !r.isSuspect(i) {
			t.Benign++
			continue
		}
		data, status := r.codec.Decode(w)
		intact := uint32(data.Uint64()) == r.golden[i]
		switch status {
		case ecc.Corrected:
			if intact {
				t.Add(faults.DRE)
			} else {
				t.Add(faults.SDC)
			}
		case ecc.Detected:
			t.Add(faults.DUE)
		default:
			if intact {
				t.Add(faults.Benign)
			} else {
				t.Add(faults.SDC)
			}
		}
	}
	return t
}
