package simd

import (
	"math"
	"math/rand"
	"testing"

	"ftspm/internal/faults"
	"ftspm/internal/rng"
	"ftspm/internal/sim"
)

// planEngine builds an engine over a hand-made strike surface: an
// instruction SPM region and a data SPM with an immune region, struck
// together, so target picks and immune absorption both show.
func planEngine(tb testing.TB, p float64, accesses uint64) *Engine {
	tb.Helper()
	sk := &Skeleton{
		accesses: accesses,
		iSurf:    []faults.RegionSurface{{Words: 64, CodeBits: 39}},
		dSurf:    []faults.RegionSurface{{Words: 128, CodeBits: 32, Immune: true}, {Words: 96, CodeBits: 39}},
	}
	sk.iBits, sk.dBits = faults.SurfaceBits(sk.iSurf), faults.SurfaceBits(sk.dSurf)
	sk.dOff = len(sk.iSurf)
	e, err := NewEngine(sk, Injection{StrikesPerAccess: p, Dist: faults.Dist40nm, Target: sim.TargetBothSPMs})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// referencePlan is the per-access Bernoulli loop plan replaces: one
// rng.Float64() per access, compared with p.
func referencePlan(e *Engine, rng *rand.Rand) (sched []strike, strikes uint64) {
	for a := uint64(1); a <= e.sk.accesses; a++ {
		if rng.Float64() >= e.inj.StrikesPerAccess {
			continue
		}
		strikes++
		if s, ok := e.drawStrike(rng, a); ok {
			sched = append(sched, s)
		}
	}
	return sched, strikes
}

// checkPlan plans lane 0 with plan and compares it with the reference
// loop over ref.
func checkPlan(t *testing.T, e *Engine, plan func(l int), ref *rand.Rand) {
	t.Helper()
	e.strikes[0] = 0
	plan(0)
	want, wantStrikes := referencePlan(e, ref)
	got := e.sched[0]
	if e.strikes[0] != wantStrikes || len(got) != len(want) {
		t.Fatalf("p=%g, %d accesses: %d strikes, %d scheduled; reference %d strikes, %d scheduled",
			e.inj.StrikesPerAccess, e.sk.accesses, e.strikes[0], len(got), wantStrikes, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p=%g: strike %d is %+v, reference %+v", e.inj.StrikesPerAccess, i, got[i], want[i])
		}
	}
}

// plantedSource is a rand.Source64 serving planted values in order.
type plantedSource struct {
	vals []uint64
	pos  int
}

func (s *plantedSource) Seed(int64) { s.pos = 0 }

func (s *plantedSource) Uint64() uint64 {
	v := s.vals[s.pos]
	s.pos++
	return v
}

func (s *plantedSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// plantedStream starts with the planted block and continues by the
// lagged-Fibonacci recurrence.
func plantedStream(block []uint64) *rng.Source {
	s := new(rng.Source)
	s.SeedFrom(&plantedSource{vals: block})
	return s
}

// craftedBlock is a first block of quiet draws for threshold th with
// the boundary values planted: th-1 and th, rng.ResampleAt-1 and
// rng.ResampleAt, masked values with the top bit set, a run of draws
// Float64 discards, and both a strike and a discarded draw at the end
// of the block so the draws that follow cross a refill.
func craftedBlock(th uint64) []uint64 {
	vals := make([]uint64, rng.LongLag)
	quiet := uint64(rng.ResampleAt) - th
	x := uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		x = x*6364136223846793005 + 1442695040888963407
		if quiet > 0 {
			vals[i] = th + x%quiet
		}
	}
	// Accesses 1..50 are quiet, then 20 discarded draws, then a strike
	// at access 51 (the resample check below relies on this layout).
	for i := 50; i < 70; i++ {
		vals[i] = rng.ResampleAt + uint64(i)
	}
	vals[70] = th - 1
	for i, v := range []uint64{th, rng.ResampleAt - 1, rng.ResampleAt, th - 1, 1<<64 - 1, 1<<63 | (th - 1), 1<<63 | th, rng.ResampleAt} {
		vals[200+10*i] = v
	}
	vals[rng.LongLag-3] = th - 1
	vals[rng.LongLag-2] = rng.ResampleAt
	vals[rng.LongLag-1] = 1<<64 - 1
	return vals
}

// TestPlanMatchesReferenceLoop feeds crafted values to both plan and
// the per-access Float64 loop. No real seed draws a value Float64
// discards, so this is the only test of plan's resample branch.
func TestPlanMatchesReferenceLoop(t *testing.T) {
	for _, p := range []float64{1e-12, 0.01, 0.5, 1} {
		e := planEngine(t, p, 5000)
		if p == 0.01 {
			// The layout really takes Float64's resample branch: the 51st
			// Float64 is a strike read from the 71st value.
			src := &plantedSource{vals: craftedBlock(e.thresh)}
			r := rand.New(src)
			for a := 1; a <= 50; a++ {
				if r.Float64() < p {
					t.Fatalf("crafted access %d strikes", a)
				}
			}
			if r.Float64() >= p || src.pos != 71 {
				t.Fatalf("crafted access 51 read %d values, want 71 ending in a strike", src.pos)
			}
		}
		e.stream.SeedFrom(&plantedSource{vals: craftedBlock(e.thresh)})
		checkPlan(t, e, e.scan, rand.New(plantedStream(craftedBlock(e.thresh))))
	}
}

// FuzzStrikePlan: for any seed, strike probability and run length, the
// block scan plans exactly the schedule of the per-access Float64 loop
// over a stock math/rand source.
func FuzzStrikePlan(f *testing.F) {
	f.Add(int64(1), 0.01, uint32(20_000))
	f.Add(int64(-7), 1e-3, uint32(606))
	f.Add(int64(math.MinInt64), 0.5, uint32(607))
	f.Add(int64(math.MaxInt64), 1.0, uint32(1214))
	f.Add(int64(0), 2.0, uint32(3))
	f.Add(int64(42), 1e-12, uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, p float64, accesses uint32) {
		if !(p > 0) {
			t.Skip("strikes are planned only for p > 0")
		}
		e := planEngine(t, p, uint64(accesses%100_000))
		checkPlan(t, e, func(l int) { e.plan(l, seed) }, rand.New(rand.NewSource(seed)))
	})
}
