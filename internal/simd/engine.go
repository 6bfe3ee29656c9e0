package simd

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"ftspm/internal/dram"
	"ftspm/internal/ecc"
	"ftspm/internal/faults"
	"ftspm/internal/rng"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
)

// MaxLanes is the scenario capacity of one packed batch: one scenario
// per bit of the lane words.
const MaxLanes = 64

// Injection parameterizes the strike process shared by all lanes; each
// lane draws from its own RNG stream (the per-trial seed), so lanes are
// statistically independent scenarios of the same process.
type Injection struct {
	// StrikesPerAccess is the per-access strike probability
	// (sim.InjectionConfig.StrikesPerAccess).
	StrikesPerAccess float64
	// Dist gives strike multiplicities.
	Dist faults.MBUDistribution
	// Target selects the struck SPM(s).
	Target sim.InjectionTarget
}

// TrialResult is one lane's outcome, bit-identical to what the scalar
// simulator reports for the same seed.
type TrialResult struct {
	Accesses uint64
	Strikes  uint64
	Recovery spm.RecoveryStats
	Audit    faults.Tally
}

// strike is one scheduled fault for one lane: flip delta into the
// region's word just before the ops of access atAccess.
type strike struct {
	atAccess uint32
	region   int32
	word     int32
	delta    uint64
}

// Engine replays a skeleton under up to 64 strike scenarios at once.
// All mutable state is preallocated at construction and reused across
// batches: steady-state RunBatch performs no allocations.
type Engine struct {
	sk  *Skeleton
	inj Injection

	// Per-region fault state, nil for immune regions. delta holds each
	// lane's stored-codeword XOR against the fault-free codeword
	// (delta[w*64+L]); mask[w] has bit L set iff lane L's delta at word
	// w is non-zero; base[w] is the fault-free codeword and golden[w]
	// its payload, shared by all lanes (the shared trajectory writes
	// the same values everywhere).
	delta  [][]uint64
	mask   [][]uint64
	base   [][]uint64
	golden [][]uint32
	zero   []uint64 // per-region power-on codeword

	// The strike planner's stream, one for all lanes (they are planned
	// one after another), and rng over it for the per-strike draws.
	// thresh is rng.Float64Threshold(StrikesPerAccess).
	stream *rng.Source
	rng    *rand.Rand
	thresh uint64
	sched  [MaxLanes][]strike
	cursor [MaxLanes]int

	// due is a min-heap of the lanes with strikes left to apply, keyed
	// dueKey(atAccess, lane) by each lane's next strike; dueN is its
	// size. due[0] is ^0, above every key, when the heap is empty, so
	// one compare per op tells whether any strike is due.
	due  [MaxLanes]uint64
	dueN int

	strikes [MaxLanes]uint64
	stats   [MaxLanes]spm.RecoveryStats
	tally   [MaxLanes]faults.Tally
}

// NewEngine builds an engine over the skeleton. The injection is
// validated the same way the scalar simulator validates its
// InjectionConfig (a zero StrikesPerAccess disables strikes).
func NewEngine(sk *Skeleton, inj Injection) (*Engine, error) {
	if inj.StrikesPerAccess > 0 {
		if err := inj.Dist.Validate(); err != nil {
			return nil, fmt.Errorf("simd: injection: %w", err)
		}
		if !inj.Target.Valid() {
			return nil, fmt.Errorf("simd: injection: unknown target %d", int(inj.Target))
		}
	}
	e := &Engine{sk: sk, inj: inj}
	e.delta = make([][]uint64, len(sk.regions))
	e.mask = make([][]uint64, len(sk.regions))
	e.base = make([][]uint64, len(sk.regions))
	e.golden = make([][]uint32, len(sk.regions))
	e.zero = make([]uint64, len(sk.regions))
	for i := range sk.regions {
		rs := &sk.regions[i]
		if rs.immune {
			continue
		}
		e.delta[i] = make([]uint64, rs.words*MaxLanes)
		e.mask[i] = make([]uint64, rs.words)
		e.base[i] = make([]uint64, rs.words)
		e.golden[i] = make([]uint32, rs.words)
		e.zero[i] = rs.codec.Encode(ecc.BitsFromUint64(0)).Uint64()
	}
	e.stream = rng.New(0)
	e.rng = rand.New(e.stream)
	e.thresh = rng.Float64Threshold(inj.StrikesPerAccess)
	if n := schedCap(sk, inj); n > 0 {
		for l := range e.sched {
			e.sched[l] = make([]strike, 0, n)
		}
	}
	return e, nil
}

// schedCap sizes a lane's strike schedule. An access schedules a strike
// with probability q, the strike rate times the non-immune share of the
// struck surface's bits, and at most once, so a lane's schedule length
// is binomial. At its mean plus 8 standard deviations a schedule
// practically never grows, whatever the seeds.
func schedCap(sk *Skeleton, inj Injection) int {
	live := func(surf []faults.RegionSurface) (n int) {
		for _, r := range surf {
			if !r.Immune {
				n += r.Words * r.CodeBits
			}
		}
		return n
	}
	q := float64(live(sk.dSurf)) / float64(sk.dBits)
	switch inj.Target {
	case sim.TargetInstSPM:
		q = float64(live(sk.iSurf)) / float64(sk.iBits)
	case sim.TargetBothSPMs:
		q = float64(live(sk.iSurf)+live(sk.dSurf)) / float64(sk.iBits+sk.dBits)
	}
	if q *= min(inj.StrikesPerAccess, 1); !(q > 0) { // also false for NaN
		return 0
	}
	mean := float64(sk.accesses) * q
	return int(mean + 8*math.Sqrt(mean*(1-q)) + 8)
}

// reset returns all shared and per-lane state to power-on.
func (e *Engine) reset(lanes int) {
	for r := range e.sk.regions {
		if e.mask[r] == nil {
			continue
		}
		mask, delta := e.mask[r], e.delta[r]
		for w, m := range mask {
			if m == 0 {
				continue
			}
			for off := w * MaxLanes; m != 0; m &= m - 1 {
				delta[off+bits.TrailingZeros64(m)] = 0
			}
			mask[w] = 0
		}
		base, golden, zero := e.base[r], e.golden[r], e.zero[r]
		for w := range base {
			base[w] = zero
			golden[w] = 0
		}
	}
	for l := 0; l < lanes; l++ {
		e.cursor[l] = 0
		e.strikes[l] = 0
		e.stats[l] = spm.RecoveryStats{}
		e.tally[l] = faults.Tally{}
	}
}

// plan precomputes lane l's strike schedule by replaying the exact RNG
// draw sequence of the scalar injection path over the whole run: the
// struck surface is static, so strike placement is independent of the
// fault state. Immune-absorbed strikes are counted but not scheduled.
func (e *Engine) plan(l int, seed int64) {
	e.stream.Seed(seed)
	e.scan(l)
}

// scan plans lane l from the stream's current position. The scalar
// path draws rng.Float64() < p per access. Here an Int63 draw x decides
// the same: x < thresh strikes, x >= rng.ResampleAt is the draw Float64
// discards and redraws for the same access, and anything in between is
// a quiet access. SkipRange finds the next draw outside the quiet range
// with one compare per draw, so quiet runs are skipped a block at a
// time.
func (e *Engine) scan(l int) {
	st := e.stream
	sched := e.sched[l][:0]
	n := e.sk.accesses
	t, quiet := e.thresh, uint64(rng.ResampleAt)-e.thresh
	for a := uint64(1); a <= n; {
		if a += st.SkipRange(t, quiet, n-a+1); a > n {
			break
		}
		if uint64(st.Int63()) >= rng.ResampleAt {
			continue
		}
		e.strikes[l]++
		if s, ok := e.drawStrike(e.rng, a); ok {
			sched = append(sched, s)
		}
		a++
	}
	e.sched[l] = sched
}

// drawStrike draws the target SPM and strike location of a strike at
// access a, in the scalar path's draw order. It reports false for a
// strike an immune region absorbs.
func (e *Engine) drawStrike(rng *rand.Rand, a uint64) (strike, bool) {
	sk := e.sk
	surf, total, off := sk.dSurf, sk.dBits, sk.dOff
	switch e.inj.Target {
	case sim.TargetInstSPM:
		surf, total, off = sk.iSurf, sk.iBits, sk.iOff
	case sim.TargetBothSPMs:
		if t := sk.iBits + sk.dBits; t > 0 && rng.Intn(t) < sk.iBits {
			surf, total, off = sk.iSurf, sk.iBits, sk.iOff
		}
	}
	ps := faults.PlanStrike(rng, surf, total, e.inj.Dist)
	if ps.Delta == 0 {
		return strike{}, false
	}
	return strike{
		atAccess: uint32(a), region: int32(off + ps.Region),
		word: int32(ps.Word), delta: ps.Delta,
	}, true
}

// dueKey orders lane l's strike at access a in the due heap.
func dueKey(a uint32, l int) uint64 { return uint64(a)<<8 | uint64(l) }

// sift places key k at position i of the due heap and moves it down
// until the heap below i is in order again.
func (e *Engine) sift(i int, k uint64) {
	for n := e.dueN; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.due[c+1] < e.due[c] {
			c++
		}
		if k <= e.due[c] {
			break
		}
		e.due[i] = e.due[c]
		i = c
	}
	e.due[i] = k
}

// strikeThrough applies, in heap order, every scheduled strike whose
// key is at most last. Strikes of different lanes touch disjoint state,
// so only each lane's own order matters, and the heap keeps it.
func (e *Engine) strikeThrough(last uint64) {
	for e.due[0] <= last {
		l := int(e.due[0] & 0xff)
		sc, cur := e.sched[l], e.cursor[l]
		s := &sc[cur]
		d := &e.delta[s.region][int(s.word)*MaxLanes+l]
		if *d ^= s.delta; *d != 0 {
			e.mask[s.region][s.word] |= 1 << uint(l)
		} else {
			e.mask[s.region][s.word] &^= 1 << uint(l)
		}
		cur++
		e.cursor[l] = cur
		if cur < len(sc) {
			e.sift(0, dueKey(sc[cur].atAccess, l))
			continue
		}
		e.dueN--
		if e.dueN == 0 {
			e.due[0] = ^uint64(0)
			return
		}
		e.sift(0, e.due[e.dueN])
	}
}

// classify returns the faulted lanes of one word whose stored codeword
// would decode Corrected and Detected. A stored word is the fault-free
// codeword XOR the lane's delta, and the codec's status depends on the
// error pattern alone (ecc.PatternClassifier), so each faulted lane is
// classified from its delta. Lanes outside the mask are clean.
func (e *Engine) classify(r int, w int) (corrected, detected uint64) {
	cls := e.sk.regions[r].classify
	delta := e.delta[r][w*MaxLanes : (w+1)*MaxLanes]
	for m := e.mask[r][w]; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		switch cls.Classify(delta[l]) {
		case ecc.Corrected:
			corrected |= 1 << uint(l)
		case ecc.Detected:
			detected |= 1 << uint(l)
		}
	}
	return corrected, detected
}

// repair replicates the scalar scrub-on-read store: the stored word
// becomes the re-encoding of whatever the decoder extracted — zero
// delta for a true correction, a latent miscorrection otherwise.
func (e *Engine) repair(r, w, l int) {
	rs := &e.sk.regions[r]
	base := e.base[r][w]
	d := &e.delta[r][w*MaxLanes+l]
	data, _ := rs.codec.Decode(ecc.BitsFromUint64(base ^ *d))
	*d = rs.codec.Encode(data).Uint64() ^ base
	if *d == 0 {
		e.mask[r][w] &^= 1 << uint(l)
	}
}

// clearLane zeroes one lane's delta at a word (re-fetch, rollback,
// restore: the stored word returns to the fault-free codeword).
func (e *Engine) clearLane(r, w, l int) {
	e.delta[r][w*MaxLanes+l] = 0
	e.mask[r][w] &^= 1 << uint(l)
}

// runWrite replays an exact encode of address-derived values: all
// lanes' words become the same fault-free codeword, wiping any deltas.
func (e *Engine) runWrite(o *op) {
	r := int(o.region)
	rs := &e.sk.regions[r]
	base, golden, mask, delta := e.base[r], e.golden[r], e.mask[r], e.delta[r]
	for i := 0; i < int(o.words); i++ {
		w := int(o.word) + i
		v := dram.Value(o.addrW + uint32(i))
		golden[w] = v
		base[w] = rs.codec.Encode(ecc.BitsFromUint64(uint64(v))).Uint64()
		if m := mask[w]; m != 0 {
			for off := w * MaxLanes; m != 0; m &= m - 1 {
				delta[off+bits.TrailingZeros64(m)] = 0
			}
			mask[w] = 0
		}
	}
}

// runRead replays a checked read. Corrected lanes repair in place. On
// the program access path (opAccessRead) they also count a DRE, and
// detected lanes go to the recovery policy with the serving block's
// residency class; a write-back read (opEvictRead) drops the detection
// outcome.
func (e *Engine) runRead(o *op) {
	r, access := int(o.region), o.kind == opAccessRead
	for w := int(o.word); w < int(o.word+o.words); w++ {
		if e.mask[r][w] == 0 {
			continue
		}
		corrected, detected := e.classify(r, w)
		for m := corrected; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if access {
				e.stats[l].CorrectedOnAccess++
			}
			e.repair(r, w, l)
		}
		if access && detected != 0 {
			e.recoverLanes(spm.SiteAccess, o.class, r, w, detected)
		}
	}
}

// recoverLanes applies the recovery policy to the detected lanes of
// word w: the action, decided once for the word's residency class,
// bumps each lane's site counter and charges its per-word cycles, and
// an action that rewrites the word returns the lane to the fault-free
// codeword. A re-fetch always verifies on its first attempt here:
// BuildSkeleton refuses wear, so no cell is stuck.
func (e *Engine) recoverLanes(site spm.DUESite, class byte, r, w int, detected uint64) {
	sk := e.sk
	act := sk.action(class)
	charge := sk.recovery.DUECharge(sk.regions[r].charges, act, true)
	rewrites := act.Rewrites()
	for m := detected; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		st := &e.stats[l]
		*st.DUECounter(site, act, true)++
		st.RecoveryCycles += charge
		if rewrites {
			e.clearLane(r, w, l)
		}
	}
}

// runScrub replays one background scrub walk using the recorded
// residency snapshot: corrected words are repaired in place, detected
// words go to the recovery policy with their class at scrub time.
func (e *Engine) runScrub(o *op) {
	snap := e.sk.snaps[o.snap]
	for r, classes := range snap {
		if classes == nil {
			continue
		}
		repair := e.sk.regions[r].charges.Repair
		for w, m := range e.mask[r] {
			if m == 0 {
				continue
			}
			corrected, detected := e.classify(r, w)
			for cm := corrected; cm != 0; cm &= cm - 1 {
				l := bits.TrailingZeros64(cm)
				e.stats[l].ScrubRepairs++
				e.stats[l].RecoveryCycles += repair
				e.repair(r, w, l)
			}
			if detected != 0 {
				e.recoverLanes(spm.SiteScrub, classes[w], r, w, detected)
			}
		}
	}
}

// audit classifies every faulted (word, lane) against the golden
// payload, adjusting each lane's tally away from the all-Benign
// fault-free baseline.
func (e *Engine) audit() {
	for r := range e.sk.regions {
		mask := e.mask[r]
		if mask == nil {
			continue
		}
		rs := &e.sk.regions[r]
		base, golden, delta := e.base[r], e.golden[r], e.delta[r]
		for w, m := range mask {
			for ; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				t := &e.tally[l]
				t.Benign--
				data, status := rs.codec.Decode(ecc.BitsFromUint64(base[w] ^ delta[w*MaxLanes+l]))
				intact := uint32(data.Uint64()) == golden[w]
				switch status {
				case ecc.Corrected:
					if intact {
						t.DRE++
					} else {
						t.SDC++
					}
				case ecc.Detected:
					t.DUE++
				default:
					if intact {
						t.Benign++
					} else {
						t.SDC++
					}
				}
			}
		}
	}
}

// ctxStride throttles cancellation checks to match the scalar run
// loop's per-event polling granularity.
const ctxStride = 4096

// RunBatch executes one packed batch: lane l runs the skeleton's
// trajectory under the strike scenario seeded by seeds[l], and out[l]
// receives its result. len(seeds) must be 1..MaxLanes and len(out) at
// least len(seeds). Cancellation returns an error wrapping
// sim.ErrCanceled, like the scalar simulator.
func (e *Engine) RunBatch(ctx context.Context, seeds []int64, out []TrialResult) error {
	lanes := len(seeds)
	if lanes == 0 || lanes > MaxLanes {
		return fmt.Errorf("simd: batch of %d lanes (want 1..%d)", lanes, MaxLanes)
	}
	if len(out) < lanes {
		return fmt.Errorf("simd: %d result slots for %d lanes", len(out), lanes)
	}
	e.reset(lanes)
	if e.inj.StrikesPerAccess > 0 {
		for l := 0; l < lanes; l++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("%w while planning lane %d: %w", sim.ErrCanceled, l, err)
				}
			}
			e.plan(l, seeds[l])
		}
	}
	return e.replay(ctx, lanes, out)
}

// replay runs the skeleton's ops for the first lanes lanes under their
// planned schedules, merged into the op stream through the due heap,
// and writes each lane's result to out.
func (e *Engine) replay(ctx context.Context, lanes int, out []TrialResult) error {
	e.dueN, e.due[0] = 0, ^uint64(0)
	for l := 0; l < lanes; l++ {
		if len(e.sched[l]) > 0 {
			e.due[e.dueN] = dueKey(e.sched[l][0].atAccess, l)
			e.dueN++
		}
	}
	for i := e.dueN/2 - 1; i >= 0; i-- {
		e.sift(i, e.due[i])
	}
	sk := e.sk
	for i := range sk.ops {
		o := &sk.ops[i]
		if ctx != nil && i%ctxStride == ctxStride-1 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w after %d ops: %w", sim.ErrCanceled, i, err)
			}
		}
		if last := dueKey(o.atAccess, MaxLanes-1); e.due[0] <= last {
			e.strikeThrough(last)
		}
		switch o.kind {
		case opWrite:
			e.runWrite(o)
		case opAccessRead, opEvictRead:
			e.runRead(o)
		case opScrub:
			e.runScrub(o)
		}
	}
	// Strikes landing after the last recorded op still corrupt state
	// the end-of-run audit sees.
	e.strikeThrough(dueKey(math.MaxUint32, MaxLanes-1))

	for l := 0; l < lanes; l++ {
		e.tally[l].Benign = sk.baseBenign
	}
	e.audit()

	for l := 0; l < lanes; l++ {
		rec := sk.base
		rec.Add(e.stats[l])
		out[l] = TrialResult{
			Accesses: sk.accesses,
			Strikes:  e.strikes[l],
			Recovery: rec,
			Audit:    e.tally[l],
		}
	}
	return nil
}
