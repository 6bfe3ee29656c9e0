package spm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ftspm/internal/ecc"
	"ftspm/internal/faults"
	"ftspm/internal/memtech"
)

// fuzzRegionWords spans two suspect-bitset words, the second one
// partial, so word indices on both sides of the 64-bit boundary are hit.
const fuzzRegionWords = 96

// Region operations driven by FuzzRegionCleanWords, one per op byte.
const (
	fuzzOpWrite = iota
	fuzzOpStrikeDelta
	fuzzOpInjectStrike
	fuzzOpStuckAt
	fuzzOpRestore
	fuzzOpRetire
	fuzzOpRead
	fuzzOpScrub
	fuzzOpAudit
	fuzzOpRewrite
	fuzzOpCount
)

// fuzzKinds are the region kinds FuzzRegionCleanWords picks from.
var fuzzKinds = []RegionKind{RegionECC, RegionParity, RegionPlain, RegionSTT, RegionDMR}

// FuzzRegionCleanWords drives a region of every kind, with wear
// attached when kindSel < 128, through random sequences of writes,
// strikes, stuck cells, restores, retirements, reads, scrubs, audits and
// rewrites of golden payloads. After every op it checks the clean-word
// invariant (a word not marked suspect holds exactly the codeword of its
// golden payload), and it checks every read, scrub and audit against a
// full decode of the words as they stood before the op: payloads,
// outcomes, stats, tally and the stored words afterwards. Without wear,
// a rewrite is checked against a forced full encode of every word; with
// wear, it must draw from the wear stream for every word, as the full
// path does.
func FuzzRegionCleanWords(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0, 6, 1, 6, 2, 7, 8, 6, 4, 6})
	f.Add(uint8(1), int64(2), []byte{0, 0, 2, 6, 7, 3, 8, 4, 6})
	f.Add(uint8(2), int64(3), []byte{0, 1, 6, 8, 3, 0, 6, 5, 7})
	f.Add(uint8(3), int64(4), []byte{0, 2, 3, 0, 6, 7, 8, 4, 6})
	f.Add(uint8(4), int64(5), []byte{0, 1, 2, 6, 7, 8, 5, 6, 4})
	f.Add(uint8(0), int64(6), []byte{0, 9, 9, 1, 9, 3, 4, 9, 6, 9})
	f.Add(uint8(128), int64(7), []byte{0, 9, 9, 1, 9, 3, 4, 9, 6, 9})
	f.Add(uint8(129), int64(8), []byte{0, 9, 2, 9, 7, 9, 3, 9, 6, 8})
	f.Add(uint8(130), int64(9), []byte{0, 9, 1, 6, 9, 3, 9, 5, 9, 8})
	f.Fuzz(func(t *testing.T, kindSel uint8, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		kind := fuzzKinds[int(kindSel)%len(fuzzKinds)]
		r, err := NewRegion(kind, fuzzRegionWords*memtech.WordBytes)
		if err != nil {
			t.Fatal(err)
		}
		var wearSrc *countingSource
		if kindSel < 128 {
			wear := WearConfig{WriteFailProb: 0.3, MaxWriteRetries: 1, StuckAtProb: 0.05}
			if err := r.EnableWear(wear, seed); err != nil {
				t.Fatal(err)
			}
			wearSrc = &countingSource{src: rand.NewSource(seed).(rand.Source64)}
			r.wear.rng = rand.New(wearSrc)
		}
		rng := rand.New(rand.NewSource(seed))
		checkCleanWords(t, r)
		for step, op := range ops {
			if err := fuzzRegionStep(r, rng, int(op)%fuzzOpCount, wearSrc); err != nil {
				t.Fatalf("step %d (op %d): %v", step, int(op)%fuzzOpCount, err)
			}
			checkCleanWords(t, r)
		}
	})
}

// countingSource counts the values drawn from a random source.
type countingSource struct {
	src rand.Source64
	n   int
}

func (c *countingSource) Int63() int64   { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(s int64)   { c.src.Seed(s) }

// fuzzRegionStep applies one op to r with arguments drawn from rng, and
// for reads, scrubs, audits and rewrites compares the result with
// refDecode. wearSrc is the wear model's source, nil without wear.
func fuzzRegionStep(r *Region, rng *rand.Rand, op int, wearSrc *countingSource) error {
	w := rng.Intn(r.Words())
	switch op {
	case fuzzOpWrite:
		vals := make([]uint32, 1+rng.Intn(min(8, r.Words()-w)))
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		_, _, err := r.WriteChecked(w, vals)
		return err
	case fuzzOpStrikeDelta:
		cb := r.codec.CodeBits()
		delta := rng.Uint64() & (1<<uint(cb) - 1)
		if rng.Intn(2) == 0 {
			// One or two flipped bits: the correctable and the
			// detectable cases a wide random delta rarely produces.
			delta = 1<<uint(rng.Intn(cb)) | 1<<uint(rng.Intn(cb))
		}
		return r.ApplyStrikeDelta(w, delta)
	case fuzzOpInjectStrike:
		_, err := r.InjectStrike(rng, w, 1+rng.Intn(3))
		return err
	case fuzzOpStuckAt:
		return r.InjectStuckAt(w, rng.Intn(r.codec.CodeBits()), rng.Intn(2) == 1)
	case fuzzOpRestore:
		return r.RestoreWord(w)
	case fuzzOpRetire:
		return r.RetireWord(w)
	case fuzzOpRead:
		n := rng.Intn(min(16, r.Words()-w) + 1)
		want := refDecode(r)
		wantOut, wantOC := want.read(w, n)
		out, _, oc, err := r.ReadChecked(w, n)
		if err != nil {
			return err
		}
		if len(out) != n || !slices.Equal(out, wantOut) {
			return fmt.Errorf("read [%d,+%d) = %#x, full decode gives %#x", w, n, out, wantOut)
		}
		if oc.Corrected != wantOC.Corrected || !slices.Equal(oc.Detected, wantOC.Detected) {
			return fmt.Errorf("read [%d,+%d) outcome %+v, full decode gives %+v", w, n, oc, wantOC)
		}
		return want.matches(r)
	case fuzzOpScrub:
		want := refDecode(r)
		wantRep, wantDet, wantCyc := want.scrub()
		rep, det, cyc := r.ScrubWords()
		if rep != wantRep || !slices.Equal(det, wantDet) || cyc != wantCyc {
			return fmt.Errorf("scrub = (%d, %v, %d), full decode gives (%d, %v, %d)",
				rep, det, cyc, wantRep, wantDet, wantCyc)
		}
		return want.matches(r)
	case fuzzOpAudit:
		want := refDecode(r)
		if got, wantT := r.Audit(), want.audit(); got != wantT {
			return fmt.Errorf("audit = %+v, full decode gives %+v", got, wantT)
		}
		return want.matches(r)
	case fuzzOpRewrite:
		n := 1 + rng.Intn(min(8, r.Words()-w))
		vals := slices.Clone(r.golden[w : w+n])
		if rng.Intn(4) == 0 {
			vals[rng.Intn(n)] = rng.Uint32() // a burst mixing a new payload in
		}
		if wearSrc != nil {
			drawn := wearSrc.n
			if _, _, err := r.WriteChecked(w, vals); err != nil {
				return err
			}
			if got := wearSrc.n - drawn; got < n {
				return fmt.Errorf("rewrite of %d words under wear drew %d wear values; the full path draws one per word or more", n, got)
			}
			return nil
		}
		want := refDecode(r)
		wantCyc, wantFailed := want.write(w, vals)
		cyc, oc, err := r.WriteChecked(w, vals)
		if err != nil {
			return err
		}
		if cyc != wantCyc || oc.Retries != 0 || !slices.Equal(oc.Failed, wantFailed) {
			return fmt.Errorf("rewrite [%d,+%d) = (%d, %+v), full encode gives (%d, failed %v)",
				w, n, cyc, oc, wantCyc, wantFailed)
		}
		if err := want.matches(r); err != nil {
			return err
		}
		for i := range r.words {
			if r.isSuspect(i) != want.suspect[i] || r.WriteCount(i) != want.writes[i] {
				return fmt.Errorf("word %d: suspect %v, %d writes; full encode gives %v, %d",
					i, r.isSuspect(i), r.WriteCount(i), want.suspect[i], want.writes[i])
			}
		}
	}
	return nil
}

// refRegion is the decode-every-word reference: a copy of a region's
// stored words and stats taken before an op, advanced the way the
// region behaved before the clean-word skip existed.
type refRegion struct {
	r       *Region
	words   []ecc.Bits
	stats   RegionStats
	suspect []bool
	writes  []uint64
}

func refDecode(r *Region) *refRegion {
	m := &refRegion{
		r:       r,
		words:   slices.Clone(r.words),
		stats:   r.stats,
		suspect: make([]bool, len(r.words)),
		writes:  slices.Clone(r.writes),
	}
	for w := range m.suspect {
		m.suspect[w] = r.isSuspect(w)
	}
	return m
}

// write is a wear-free write that encodes every word, the region's
// behaviour before clean rewrites skipped the encode. It returns the
// latency and the words a stuck cell kept from their codeword.
func (m *refRegion) write(wordIdx int, vals []uint32) (memtech.Cycles, []int) {
	var failed []int
	for i, v := range vals {
		w := wordIdx + i
		m.repair(w, v)
		m.suspect[w] = m.words[w] != m.r.codec.Encode(ecc.BitsFromUint64(uint64(v)))
		if m.suspect[w] {
			failed = append(failed, w)
		}
		m.writes[w]++
	}
	n := len(vals) * memtech.WordBytes
	m.stats.WriteAccesses++
	m.stats.WordsWritten += uint64(len(vals))
	m.stats.Energy += m.r.bank.AccessEnergy(n, true)
	return m.r.bank.AccessLatency(n, true), failed
}

// repair stores the codeword of v over word w, honouring stuck cells.
func (m *refRegion) repair(w int, v uint32) {
	code := m.r.codec.Encode(ecc.BitsFromUint64(uint64(v)))
	if m.r.stuckMask != nil {
		code = faults.ApplyStuckAt(code, m.r.stuckMask[w], m.r.stuckVal[w])
	}
	m.words[w] = code
}

func (m *refRegion) read(wordIdx, n int) ([]uint32, ReadOutcome) {
	var oc ReadOutcome
	out := make([]uint32, n)
	for i := range out {
		w := wordIdx + i
		data, status := m.r.codec.Decode(m.words[w])
		out[i] = uint32(data.Uint64())
		switch status {
		case ecc.Corrected:
			m.stats.CorrectedErrors++
			oc.Corrected++
			m.repair(w, out[i])
		case ecc.Detected:
			m.stats.DetectedErrors++
			oc.Detected = append(oc.Detected, w)
		}
		if status != ecc.Detected && out[i] != m.r.golden[w] {
			m.stats.SilentReads++
		}
	}
	m.stats.ReadAccesses++
	m.stats.WordsRead += uint64(n)
	m.stats.Energy += m.r.bank.AccessEnergy(n*memtech.WordBytes, false)
	return out, oc
}

func (m *refRegion) scrub() (repaired int, detected []int, cycles memtech.Cycles) {
	b := m.r.bank
	cycles = b.AccessLatency(len(m.words)*memtech.WordBytes, false)
	m.stats.ReadAccesses++
	m.stats.WordsRead += uint64(len(m.words))
	m.stats.Energy += b.AccessEnergy(len(m.words)*memtech.WordBytes, false)
	for i, code := range m.words {
		if m.r.IsRetired(i) {
			continue
		}
		data, status := m.r.codec.Decode(code)
		switch status {
		case ecc.Corrected:
			m.repair(i, uint32(data.Uint64()))
			repaired++
			m.stats.CorrectedErrors++
			cycles += b.AccessLatency(memtech.WordBytes, true)
			m.stats.Energy += b.AccessEnergy(memtech.WordBytes, true)
			m.stats.WordsWritten++
		case ecc.Detected:
			detected = append(detected, i)
			m.stats.DetectedErrors++
		}
	}
	return repaired, detected, cycles
}

func (m *refRegion) audit() faults.Tally {
	var t faults.Tally
	for i, code := range m.words {
		if m.r.IsRetired(i) {
			continue
		}
		data, status := m.r.codec.Decode(code)
		intact := uint32(data.Uint64()) == m.r.golden[i]
		switch {
		case status == ecc.Detected:
			t.Add(faults.DUE)
		case !intact:
			t.Add(faults.SDC)
		case status == ecc.Corrected:
			t.Add(faults.DRE)
		default:
			t.Add(faults.Benign)
		}
	}
	return t
}

// matches reports whether the region's stored words and stats equal
// the reference's after the same op.
func (m *refRegion) matches(r *Region) error {
	if r.stats != m.stats {
		return fmt.Errorf("stats %+v, full decode gives %+v", r.stats, m.stats)
	}
	if !slices.Equal(r.words, m.words) {
		return fmt.Errorf("stored words diverge from the full-decode reference")
	}
	return nil
}

// checkCleanWords asserts the clean-word invariant and the suspect
// count.
func checkCleanWords(t *testing.T, r *Region) {
	t.Helper()
	n := 0
	for _, set := range r.suspect {
		n += bits.OnesCount64(set)
	}
	if n != r.nSuspect {
		t.Fatalf("nSuspect = %d, bitset holds %d", r.nSuspect, n)
	}
	for w, code := range r.words {
		if r.isSuspect(w) {
			continue
		}
		if want := r.codec.Encode(ecc.BitsFromUint64(uint64(r.golden[w]))); code != want {
			t.Fatalf("clean word %d holds %s, want Encode(%#x) = %s", w, code, r.golden[w], want)
		}
	}
}
