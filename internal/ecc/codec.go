package ecc

import (
	"errors"
	"fmt"
	"math/bits"
)

// Status classifies the outcome of decoding one codeword, matching the
// error taxonomy of Section IV: DRE (detected & recovered), DUE (detected
// unrecoverable), and — when a multi-bit upset aliases to a clean or
// correctable syndrome — silent data corruption, which a decoder cannot
// observe and therefore reports as Clean or Corrected with wrong data.
type Status int

// Decode outcomes.
const (
	// Clean: the codeword is consistent; no error observed.
	Clean Status = iota + 1
	// Corrected: a single-bit error was detected and repaired (DRE).
	Corrected
	// Detected: an uncorrectable error was detected (DUE).
	Detected
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Clean:
		return "clean"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Codec encodes fixed-width data words into codewords and decodes
// possibly-corrupted codewords back.
type Codec interface {
	// Name identifies the code, e.g. "parity(33,32)" or "hamming(39,32)".
	Name() string
	// DataBits is the number of payload bits per word.
	DataBits() int
	// CodeBits is the total stored bits per word, payload included.
	CodeBits() int
	// Encode maps a data word (low DataBits of the argument) to its
	// codeword.
	Encode(data Bits) Bits
	// Decode maps a codeword back to its data word, correcting what the
	// code can correct and classifying the outcome. The returned data is
	// meaningful for Clean and Corrected; for Detected it is the
	// best-effort extraction of the payload bits.
	Decode(code Bits) (Bits, Status)
}

// PatternClassifier is implemented by codecs whose decode status is a
// function of the error pattern alone: Classify(delta) is the Decode
// status of any codeword XOR delta, for delta within the low
// min(CodeBits(), 64) bits, in O(popcount(delta)). Each such code's
// status depends only on quantities linear over GF(2) in the stored
// word and zero on every codeword: the parity of all bits, the
// syndrome, the mismatch of the copies.
type PatternClassifier interface {
	Classify(delta uint64) Status
}

// ErrBadDataBits is returned for unsupported payload widths.
var ErrBadDataBits = errors.New("ecc: unsupported number of data bits")

// lowMask returns a mask of the low k bits (1 ≤ k ≤ 64).
func lowMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// ParityCodec is a single even-parity bit over k data bits: detects any
// odd number of bit flips, corrects nothing. This is protection level (2)
// of Table IV.
type ParityCodec struct {
	k    int
	mask uint64 // low k bits
}

var _ Codec = (*ParityCodec)(nil)

// NewParity returns a parity codec over k data bits (1 ≤ k ≤ 64).
func NewParity(k int) (*ParityCodec, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("%w: %d", ErrBadDataBits, k)
	}
	return &ParityCodec{k: k, mask: lowMask(k)}, nil
}

// Name implements Codec.
func (c *ParityCodec) Name() string { return fmt.Sprintf("parity(%d,%d)", c.k+1, c.k) }

// DataBits implements Codec.
func (c *ParityCodec) DataBits() int { return c.k }

// CodeBits implements Codec.
func (c *ParityCodec) CodeBits() int { return c.k + 1 }

// Encode implements Codec: the parity bit is stored at position k.
func (c *ParityCodec) Encode(data Bits) Bits {
	d := data.w[0] & c.mask
	code := Bits{w: [2]uint64{d, 0}}
	if bits.OnesCount64(d)%2 == 1 {
		code = code.Set(c.k, true)
	}
	return code
}

// Decode implements Codec.
func (c *ParityCodec) Decode(code Bits) (Bits, Status) {
	data := Bits{w: [2]uint64{code.w[0] & c.mask, 0}}
	if code.OnesCount()%2 != 0 {
		return data, Detected
	}
	return data, Clean
}

// Classify implements PatternClassifier: an odd number of flipped bits
// is detected.
func (c *ParityCodec) Classify(delta uint64) Status {
	if bits.OnesCount64(delta)%2 != 0 {
		return Detected
	}
	return Clean
}

// encodeBitwise is the pre-table reference implementation, kept as the
// oracle for golden-vector and fuzz cross-checks.
func (c *ParityCodec) encodeBitwise(data Bits) Bits {
	code := c.maskDataBitwise(data)
	return code.Set(c.k, code.OnesCount()%2 == 1)
}

// decodeBitwise is the pre-table reference implementation.
func (c *ParityCodec) decodeBitwise(code Bits) (Bits, Status) {
	data := c.maskDataBitwise(code)
	if code.OnesCount()%2 != 0 {
		return data, Detected
	}
	return data, Clean
}

func (c *ParityCodec) maskDataBitwise(b Bits) Bits {
	var out Bits
	for i := 0; i < c.k; i++ {
		if b.Get(i) {
			out = out.Set(i, true)
		}
	}
	return out
}

// HammingCodec is an extended Hamming SEC-DED code over k data bits:
// r check bits at power-of-two positions plus one overall parity bit.
// k=32 yields the (39,32) organization, k=64 the (72,64) organization
// referenced by the paper's SEC-DED regions (Table IV protection (3)).
//
// Encode and Decode are table-driven: the code is linear, so a codeword
// is the XOR of per-data-bit parity masks (encMask), and decoding walks
// only the set bits of the stored word, accumulating the syndrome and
// the extracted payload in one pass; a nonzero syndrome inside the code
// is the flipped position itself. The original per-bit loops survive as
// encodeBitwise/decodeBitwise, the oracle the golden-vector tests and
// the fuzz cross-check compare against.
type HammingCodec struct {
	k       int   // data bits
	r       int   // Hamming check bits
	n       int   // inner code length = k + r (positions 1..n)
	dataPos []int // 1-based inner positions holding data bits, len k

	dataMask uint64    // low k bits of the payload
	codeMask [2]uint64 // bits 0..n of the stored word (valid codeword positions)
	encMask  [64]Bits  // per-data-bit codeword contribution, overall parity excluded
	posData  [128]int8 // codeword position → payload bit index, -1 = check/parity position
}

var _ Codec = (*HammingCodec)(nil)

// NewHamming returns an extended Hamming SEC-DED codec over k data bits.
// Supported widths are 8, 16, 32, and 64.
func NewHamming(k int) (*HammingCodec, error) {
	switch k {
	case 8, 16, 32, 64:
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadDataBits, k)
	}
	r := 0
	for (1 << r) < k+r+1 {
		r++
	}
	c := &HammingCodec{k: k, r: r, n: k + r}
	for pos := 1; pos <= c.n; pos++ {
		if pos&(pos-1) != 0 { // not a power of two → data position
			c.dataPos = append(c.dataPos, pos)
		}
	}
	c.buildTables()
	return c, nil
}

// buildTables precomputes the encode masks and decode lookup tables from
// the bitwise reference path, which guarantees the two stay codeword-
// compatible by construction.
func (c *HammingCodec) buildTables() {
	c.dataMask = lowMask(c.k)
	full := Bits{}
	for pos := 0; pos <= c.n; pos++ {
		full = full.Set(pos, true)
	}
	c.codeMask = full.w
	for i := range c.posData {
		c.posData[i] = -1
	}
	for i, pos := range c.dataPos {
		c.posData[pos] = int8(i)
	}
	for i := 0; i < c.k; i++ {
		// The code is linear: the codeword of e_i (data position plus the
		// check bits covering it) is the XOR contribution of data bit i.
		// The overall parity bit is not linear per mask; Encode recomputes
		// it from the popcount of the assembled word.
		c.encMask[i] = c.encodeBitwise(BitsFromUint64(1<<uint(i))).Set(0, false)
	}
}

// MustHamming is NewHamming for statically-valid widths; it panics on
// error and exists for package-level configuration in this module.
func MustHamming(k int) *HammingCodec {
	c, err := NewHamming(k)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Codec.
func (c *HammingCodec) Name() string { return fmt.Sprintf("hamming(%d,%d)", c.n+1, c.k) }

// DataBits implements Codec.
func (c *HammingCodec) DataBits() int { return c.k }

// CodeBits implements Codec: inner code plus the overall parity bit.
func (c *HammingCodec) CodeBits() int { return c.n + 1 }

// Codeword layout in the returned Bits: bit 0 holds the overall parity,
// bits 1..n hold the inner Hamming codeword at their natural positions.

// Encode implements Codec: XOR of the parity masks of the set data bits,
// then the overall parity from one popcount.
func (c *HammingCodec) Encode(data Bits) Bits {
	var code Bits
	for v := data.w[0] & c.dataMask; v != 0; v &= v - 1 {
		m := &c.encMask[bits.TrailingZeros64(v)]
		code.w[0] ^= m.w[0]
		code.w[1] ^= m.w[1]
	}
	if code.OnesCount()%2 == 1 {
		code.w[0] |= 1
	}
	return code
}

// Decode implements Codec: one pass over the set bits of the stored word
// accumulates the syndrome and the extracted payload.
func (c *HammingCodec) Decode(code Bits) (Bits, Status) {
	syndrome := 0
	var data uint64
	for v := code.w[0] & c.codeMask[0]; v != 0; v &= v - 1 {
		p := bits.TrailingZeros64(v)
		syndrome ^= p // position 0 (overall parity) contributes 0
		if d := c.posData[p]; d >= 0 {
			data |= 1 << uint(d)
		}
	}
	for v := code.w[1] & c.codeMask[1]; v != 0; v &= v - 1 {
		p := 64 + bits.TrailingZeros64(v)
		syndrome ^= p
		if d := c.posData[p]; d >= 0 {
			data |= 1 << uint(d)
		}
	}
	// The overall parity covers ALL stored bits.
	status := c.status(syndrome, code.OnesCount()%2 != 0)
	if status == Corrected {
		// Flipping a check or parity position leaves the payload
		// untouched.
		if d := c.posData[syndrome]; d >= 0 {
			data ^= 1 << uint(d)
		}
	}
	return BitsFromUint64(data), status
}

// status is the SEC-DED decision on a syndrome and the overall parity.
// An odd flip count is assumed single and corrected (a syndrome of 0
// means the overall parity bit itself flipped) unless the syndrome
// points outside the code (≥3 flips). An even count with a nonzero
// syndrome is detected.
func (c *HammingCodec) status(syndrome int, odd bool) Status {
	switch {
	case !odd && syndrome == 0:
		return Clean
	case odd && syndrome <= c.n:
		return Corrected
	}
	return Detected
}

// Classify implements PatternClassifier.
func (c *HammingCodec) Classify(delta uint64) Status {
	syndrome := 0
	for v := delta & c.codeMask[0]; v != 0; v &= v - 1 {
		syndrome ^= bits.TrailingZeros64(v)
	}
	return c.status(syndrome, bits.OnesCount64(delta)%2 != 0)
}

// encodeBitwise is the pre-table reference implementation: place data
// bits, then compute each check bit by a parity loop over the positions
// it covers. Kept as the oracle for golden-vector and fuzz cross-checks
// (and to build the tables).
func (c *HammingCodec) encodeBitwise(data Bits) Bits {
	var code Bits
	for i, pos := range c.dataPos {
		if data.Get(i) {
			code = code.Set(pos, true)
		}
	}
	// Check bit at position 2^j makes the parity over {pos: pos has bit
	// j set} even.
	for j := 0; j < c.r; j++ {
		parity := false
		for pos := 1; pos <= c.n; pos++ {
			if pos&(1<<j) != 0 && code.Get(pos) {
				parity = !parity
			}
		}
		if parity {
			code = code.Set(1<<j, true)
		}
	}
	// Overall parity over positions 1..n stored at position 0.
	if code.OnesCount()%2 == 1 {
		code = code.Set(0, true)
	}
	return code
}

// decodeBitwise is the pre-table reference implementation.
func (c *HammingCodec) decodeBitwise(code Bits) (Bits, Status) {
	syndrome := 0
	for pos := 1; pos <= c.n; pos++ {
		if code.Get(pos) {
			syndrome ^= pos
		}
	}
	overall := code.OnesCount()%2 != 0

	switch {
	case syndrome == 0 && !overall:
		return c.extract(code), Clean
	case overall:
		if syndrome == 0 {
			return c.extract(code), Corrected
		}
		if syndrome <= c.n {
			return c.extract(code.Flip(syndrome)), Corrected
		}
		return c.extract(code), Detected
	default:
		return c.extract(code), Detected
	}
}

func (c *HammingCodec) extract(code Bits) Bits {
	var data Bits
	for i, pos := range c.dataPos {
		if code.Get(pos) {
			data = data.Set(i, true)
		}
	}
	return data
}

// RawCodec stores data words unmodified: protection level (1) of Table IV
// (unprotected SRAM) and the representation used for STT-RAM regions,
// whose cells are inherently immune (level (4)).
type RawCodec struct {
	k int
}

var _ Codec = (*RawCodec)(nil)

// NewRaw returns a pass-through codec over k data bits (1 ≤ k ≤ 64).
func NewRaw(k int) (*RawCodec, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("%w: %d", ErrBadDataBits, k)
	}
	return &RawCodec{k: k}, nil
}

// Name implements Codec.
func (c *RawCodec) Name() string { return fmt.Sprintf("raw(%d)", c.k) }

// DataBits implements Codec.
func (c *RawCodec) DataBits() int { return c.k }

// CodeBits implements Codec.
func (c *RawCodec) CodeBits() int { return c.k }

// Encode implements Codec.
func (c *RawCodec) Encode(data Bits) Bits { return data }

// Decode implements Codec: a raw word can never observe an error.
func (c *RawCodec) Decode(code Bits) (Bits, Status) { return code, Clean }

// Classify implements PatternClassifier: a raw word can never observe
// an error.
func (c *RawCodec) Classify(delta uint64) Status { return Clean }

// DMRCodec stores every data word twice (dual modular redundancy) — the
// duplication-based SPM protection of the paper's related work [3].
// Reads compare the copies: a mismatch is detected but not correctable
// (with two copies there is no majority), so duplication converts
// almost every upset into a DUE at the cost of doubling the storage and
// the write traffic. Silent corruption requires the same flips in both
// copies, which independent strikes essentially never produce.
type DMRCodec struct {
	k    int
	mask uint64 // low k bits
}

var _ Codec = (*DMRCodec)(nil)

// NewDMR returns a duplication codec over k data bits (1 ≤ k ≤ 32: the
// codeword holds two copies).
func NewDMR(k int) (*DMRCodec, error) {
	if k < 1 || k > 32 {
		return nil, fmt.Errorf("%w: %d", ErrBadDataBits, k)
	}
	return &DMRCodec{k: k, mask: lowMask(k)}, nil
}

// Name implements Codec.
func (c *DMRCodec) Name() string { return fmt.Sprintf("dmr(%d,%d)", 2*c.k, c.k) }

// DataBits implements Codec.
func (c *DMRCodec) DataBits() int { return c.k }

// CodeBits implements Codec.
func (c *DMRCodec) CodeBits() int { return 2 * c.k }

// Encode implements Codec: copy A in bits [0,k), copy B in [k,2k).
func (c *DMRCodec) Encode(data Bits) Bits {
	d := data.w[0] & c.mask
	return Bits{w: [2]uint64{d | d<<uint(c.k), 0}}
}

// Decode implements Codec: mismatching copies are a detected,
// unrecoverable error; the first copy is returned as the best effort.
func (c *DMRCodec) Decode(code Bits) (Bits, Status) {
	return BitsFromUint64(code.w[0] & c.mask), c.Classify(code.w[0])
}

// Classify implements PatternClassifier: flips that differ between the
// copies are detected.
func (c *DMRCodec) Classify(delta uint64) Status {
	if delta&c.mask != delta>>uint(c.k)&c.mask {
		return Detected
	}
	return Clean
}

// encodeBitwise is the pre-table reference implementation.
func (c *DMRCodec) encodeBitwise(data Bits) Bits {
	var code Bits
	for i := 0; i < c.k; i++ {
		if data.Get(i) {
			code = code.Set(i, true).Set(i+c.k, true)
		}
	}
	return code
}

// decodeBitwise is the pre-table reference implementation.
func (c *DMRCodec) decodeBitwise(code Bits) (Bits, Status) {
	var a, b Bits
	for i := 0; i < c.k; i++ {
		if code.Get(i) {
			a = a.Set(i, true)
		}
		if code.Get(i + c.k) {
			b = b.Set(i, true)
		}
	}
	if a != b {
		return a, Detected
	}
	return a, Clean
}
