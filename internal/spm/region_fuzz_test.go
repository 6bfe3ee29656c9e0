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
	fuzzOpCount
)

// fuzzKinds are the region kinds FuzzRegionCleanWords picks from.
var fuzzKinds = []RegionKind{RegionECC, RegionParity, RegionPlain, RegionSTT, RegionDMR}

// FuzzRegionCleanWords drives a region of every kind, wear on, through
// random sequences of writes, strikes, stuck cells, restores,
// retirements, reads, scrubs and audits. After every op it checks the
// clean-word invariant (a word not marked suspect holds exactly the
// codeword of its golden payload), and it checks every read, scrub and
// audit against a full decode of the words as they stood before the op:
// payloads, outcomes, stats, tally and the stored words afterwards.
func FuzzRegionCleanWords(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0, 6, 1, 6, 2, 7, 8, 6, 4, 6})
	f.Add(uint8(1), int64(2), []byte{0, 0, 2, 6, 7, 3, 8, 4, 6})
	f.Add(uint8(2), int64(3), []byte{0, 1, 6, 8, 3, 0, 6, 5, 7})
	f.Add(uint8(3), int64(4), []byte{0, 2, 3, 0, 6, 7, 8, 4, 6})
	f.Add(uint8(4), int64(5), []byte{0, 1, 2, 6, 7, 8, 5, 6, 4})
	f.Fuzz(func(t *testing.T, kindSel uint8, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		kind := fuzzKinds[int(kindSel)%len(fuzzKinds)]
		r, err := NewRegion(kind, fuzzRegionWords*memtech.WordBytes)
		if err != nil {
			t.Fatal(err)
		}
		wear := WearConfig{WriteFailProb: 0.3, MaxWriteRetries: 1, StuckAtProb: 0.05}
		if err := r.EnableWear(wear, seed); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		checkCleanWords(t, r)
		for step, op := range ops {
			if err := fuzzRegionStep(r, rng, int(op)%fuzzOpCount); err != nil {
				t.Fatalf("step %d (op %d): %v", step, int(op)%fuzzOpCount, err)
			}
			checkCleanWords(t, r)
		}
	})
}

// fuzzRegionStep applies one op to r with arguments drawn from rng, and
// for reads, scrubs and audits compares the result with refDecode.
func fuzzRegionStep(r *Region, rng *rand.Rand, op int) error {
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
	}
	return nil
}

// refRegion is the decode-every-word reference: a copy of a region's
// stored words and stats taken before an op, advanced the way the
// region behaved before the clean-word skip existed.
type refRegion struct {
	r     *Region
	words []ecc.Bits
	stats RegionStats
}

func refDecode(r *Region) *refRegion {
	return &refRegion{r: r, words: append([]ecc.Bits(nil), r.words...), stats: r.stats}
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
