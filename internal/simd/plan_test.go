package simd

import (
	"math"
	"math/rand"
	"testing"

	"ftspm/internal/faults"
	"ftspm/internal/sim"
)

// TestStreamMatchesMathRand: the block replay yields exactly the values
// of rand.NewSource over several refills, through both Source64
// methods and through a rand.Rand, and a reseed of a used stream
// (mid-block) starts over cleanly.
func TestStreamMatchesMathRand(t *testing.T) {
	st := newStream()
	for _, seed := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1} {
		st.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for n := 0; n < 6*lagLong+100; n++ {
			var got, want uint64
			if n%3 == 2 {
				got, want = uint64(st.Int63()), uint64(ref.Int63())
			} else {
				got, want = st.Uint64(), ref.Uint64()
			}
			if got != want {
				t.Fatalf("seed %d, output %d: got %#x, want %#x", seed, n, got, want)
			}
		}
	}

	st.Seed(7)
	got, want := rand.New(st), rand.New(rand.NewSource(7))
	for n := 0; n < 3*lagLong; n++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("Float64 %d: got %v, want %v", n, g, w)
		}
		if g, w := got.Intn(1000+n), want.Intn(1000+n); g != w {
			t.Fatalf("Intn %d: got %d, want %d", n, g, w)
		}
	}
}

// TestStrikeThreshold: thresh is the exact integer image of the
// Float64() < p test, and resampleAt is the least draw Float64 rounds
// to 1.0.
func TestStrikeThreshold(t *testing.T) {
	const two63 = 1 << 63
	if resampleAt != two63-512 {
		t.Fatalf("resampleAt = %d, want 2^63-512", uint64(resampleAt))
	}
	if float64(uint64(resampleAt))/two63 != 1 || float64(uint64(resampleAt-1))/two63 >= 1 {
		t.Errorf("2^63-512 is not the least Int63 that Float64 rounds to 1.0")
	}
	for _, p := range []float64{0, 1e-12, 0.01, 0.1, 0.5, 1} {
		th := strikeThreshold(p)
		if th > 0 && !(float64(th-1)/two63 < p) {
			t.Errorf("p=%g: threshold %d - 1 maps to %v, not below p", p, th, float64(th-1)/two63)
		}
		if !(p <= float64(th)/two63) {
			t.Errorf("p=%g: threshold %d maps to %v, below p", p, th, float64(th)/two63)
		}
	}
}

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

// checkPlan plans lane 0 from seed and compares it with the reference
// loop over ref.
func checkPlan(t *testing.T, e *Engine, seed int64, ref *rand.Rand) {
	t.Helper()
	e.strikes[0] = 0
	e.plan(0, seed)
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

// replaySource is a rand.Source64 that starts with crafted values and
// continues by the lagged-Fibonacci recurrence, computed from its
// definition over the whole history. Seed rewinds it.
type replaySource struct {
	hist []uint64
	pos  int
}

func (r *replaySource) Seed(int64) { r.pos = 0 }

func (r *replaySource) Uint64() uint64 {
	for r.pos >= len(r.hist) {
		n := len(r.hist)
		r.hist = append(r.hist, r.hist[n-lagLong]+r.hist[n-lagShort])
	}
	r.pos++
	return r.hist[r.pos-1]
}

func (r *replaySource) Int63() int64 { return int64(r.Uint64() & int63Mask) }

// craftedBlock is a first block of quiet draws for threshold th with
// the boundary values planted: th-1 and th, resampleAt-1 and
// resampleAt, masked values with the top bit set, a run of draws
// Float64 discards, and both a strike and a discarded draw at the end
// of the block so the draws that follow cross a refill.
func craftedBlock(th uint64) []uint64 {
	vals := make([]uint64, lagLong)
	quiet := uint64(resampleAt) - th
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
		vals[i] = resampleAt + uint64(i)
	}
	vals[70] = th - 1
	for i, v := range []uint64{th, resampleAt - 1, resampleAt, th - 1, 1<<64 - 1, 1<<63 | (th - 1), 1<<63 | th, resampleAt} {
		vals[200+10*i] = v
	}
	vals[lagLong-3] = th - 1
	vals[lagLong-2] = resampleAt
	vals[lagLong-1] = 1<<64 - 1
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
			src := &replaySource{hist: craftedBlock(e.thresh)}
			rng := rand.New(src)
			for a := 1; a <= 50; a++ {
				if rng.Float64() < p {
					t.Fatalf("crafted access %d strikes", a)
				}
			}
			if rng.Float64() >= p || src.pos != 71 {
				t.Fatalf("crafted access 51 read %d values, want 71 ending in a strike", src.pos)
			}
		}
		e.stream.seeder = &replaySource{hist: craftedBlock(e.thresh)}
		checkPlan(t, e, 0, rand.New(&replaySource{hist: craftedBlock(e.thresh)}))
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
		checkPlan(t, e, seed, rand.New(rand.NewSource(seed)))
	})
}
