package rng

import (
	"math"
	"math/rand"
	"testing"
)

var testSeeds = []int64{0, 1, -1, 7, 1301, 0x5bd1e995, math.MinInt64, math.MaxInt64}

// draws is long enough to cross several block refills.
const draws = 6*LongLag + 100

// TestStreamMatchesMathRand: the block replay yields exactly the values
// of rand.NewSource over several refills, through both Source64
// methods and through a rand.Rand, and a reseed of a used source
// (mid-block) starts over cleanly.
func TestStreamMatchesMathRand(t *testing.T) {
	st := New(0)
	for _, seed := range append(testSeeds, 1) {
		st.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for n := 0; n < draws; n++ {
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
	for n := 0; n < 3*LongLag; n++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("Float64 %d: got %v, want %v", n, g, w)
		}
		if g, w := got.Intn(1000+n), want.Intn(1000+n); g != w {
			t.Fatalf("Intn %d: got %d, want %d", n, g, w)
		}
	}
}

// intnArgs covers every branch of Intn: powers of two (the mask), small
// n, n just above 2^30 (Int31n redraws nearly half its draws), and n
// past 2^31 (the Int63n path, power of two or not).
var intnArgs = []int{
	1, 2, 4, 64, 1 << 20, 1 << 30,
	3, 5, 7, 10, 33, 100, 512 - 1, 1000, 20 * 1024,
	1<<30 + 1, 1<<30 + 3, 1<<30 + 12345, 1<<31 - 1,
	1 << 31, 1<<31 + 1, 1 << 40, 1<<62 + 1, math.MaxInt64,
}

// TestMethodsMatchMathRand draws Int63, Int31, Int31n, Intn, Bounded
// and Float64 interleaved, against rand.New over the stock source, for
// many seeds and past several refills.
func TestMethodsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds {
		st := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for n := 0; n < draws; n++ {
			arg := intnArgs[n%len(intnArgs)]
			switch n % 6 {
			case 0:
				if g, w := st.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, n, g, w)
				}
			case 1:
				if g, w := st.Intn(arg), ref.Intn(arg); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, n, arg, g, w)
				}
			case 2:
				if g, w := st.Float64(), ref.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, n, g, w)
				}
			case 3:
				if arg > math.MaxInt32 {
					arg = 1<<30 + 1
				}
				if g, w := st.Int31n(int32(arg)), ref.Int31n(int32(arg)); g != w {
					t.Fatalf("seed %d draw %d: Int31n(%d) = %d, want %d", seed, n, arg, g, w)
				}
			case 4:
				if g, w := st.Int31(), ref.Int31(); g != w {
					t.Fatalf("seed %d draw %d: Int31 %d, want %d", seed, n, g, w)
				}
			case 5:
				if arg > math.MaxInt32 {
					arg = 1<<30 + 3
				}
				if g, w := st.Bounded(NewBound(arg)), ref.Intn(arg); g != w {
					t.Fatalf("seed %d draw %d: Bounded(%d) = %d, want %d", seed, n, arg, g, w)
				}
			}
		}
	}
}

// TestIntnRejectionPath: for n just above 2^30 nearly half of all Int31
// draws are redrawn, so a long run of Intn(n) crosses refills inside
// the rejection loop.
func TestIntnRejectionPath(t *testing.T) {
	const n = 1<<30 + 1
	for _, seed := range testSeeds {
		st, ref := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 4*LongLag; i++ {
			if g, w := st.Intn(n), ref.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn %d, want %d", seed, i, g, w)
			}
		}
		if g, w := st.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("seed %d: streams out of step after the rejection run", seed)
		}
	}
}

// sliceSource is a rand.Source64 serving planted values in order.
type sliceSource struct {
	vals []uint64
	pos  int
}

func (s *sliceSource) Seed(int64) { s.pos = 0 }

func (s *sliceSource) Uint64() uint64 {
	v := s.vals[s.pos]
	s.pos++
	return v
}

func (s *sliceSource) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// TestFloat64Redraw plants draws that Float64 rounds to 1.0 and checks
// that both the replay and rand.Rand discard them and return the next
// draw. No real seed reaches this branch in a test-sized run.
func TestFloat64Redraw(t *testing.T) {
	vals := make([]uint64, LongLag)
	for i := range vals {
		vals[i] = uint64(i) << 40
	}
	vals[0] = ResampleAt
	vals[1] = 1<<64 - 1 // masked to 2^63-1, also rounds to 1.0
	vals[2] = ResampleAt - 1
	vals[3] = 1<<63 | ResampleAt
	st := &Source{}
	st.SeedFrom(&sliceSource{vals: vals})
	ref := rand.New(&sliceSource{vals: vals})
	for i := 0; i < 4; i++ {
		g, w := st.Float64(), ref.Float64()
		if g != w {
			t.Fatalf("Float64 %d: got %v, want %v", i, g, w)
		}
		if g >= 1 {
			t.Fatalf("Float64 %d returned %v", i, g)
		}
	}
	if st.pos != 7 {
		t.Fatalf("four Float64 draws consumed %d outputs, want 7 (three redraws)", st.pos)
	}
}

// TestInt31nLimit plants Int31 draws at and just past Int31n's
// rejection limit: the draw at the limit is kept, the one past it is
// redrawn. Random seeds hit either with odds of 2^-31.
func TestInt31nLimit(t *testing.T) {
	const n = 1<<30 + 1 // limit 2^30
	b := NewBound(n)
	if b.limit != 1<<30 {
		t.Fatalf("limit of %d = %d, want 2^30", n, b.limit)
	}
	vals := make([]uint64, LongLag)
	for i := range vals {
		vals[i] = uint64(i+1) << 32
	}
	vals[0] = 1 << 30 << 32     // Int31 == limit: kept
	vals[1] = (1<<30 + 1) << 32 // past the limit: redrawn
	vals[3] = 1<<63 | 1<<30<<32 // top bit masked off: limit again
	st := &Source{}
	st.SeedFrom(&sliceSource{vals: vals})
	ref := rand.New(&sliceSource{vals: vals})
	for i := 0; i < 3; i++ {
		if g, w := st.Intn(n), ref.Intn(n); g != w {
			t.Fatalf("Intn %d: got %d, want %d", i, g, w)
		}
	}
	if st.pos != 4 {
		t.Fatalf("three Intn draws consumed %d outputs, want 4 (one redraw)", st.pos)
	}
}

// TestStrikeThreshold: the threshold is the exact integer image of the
// Float64() < p test, and ResampleAt is the least draw Float64 rounds
// to 1.0.
func TestStrikeThreshold(t *testing.T) {
	const two63 = 1 << 63
	if ResampleAt != two63-512 {
		t.Fatalf("ResampleAt = %d, want 2^63-512", uint64(ResampleAt))
	}
	if float64(uint64(ResampleAt))/two63 != 1 || float64(uint64(ResampleAt-1))/two63 >= 1 {
		t.Errorf("2^63-512 is not the least Int63 that Float64 rounds to 1.0")
	}
	for _, p := range []float64{0, 1e-12, 0.01, 0.1, 0.5, 1} {
		th := Float64Threshold(p)
		if th > 0 && !(float64(th-1)/two63 < p) {
			t.Errorf("p=%g: threshold %d - 1 maps to %v, not below p", p, th, float64(th-1)/two63)
		}
		if !(p <= float64(th)/two63) {
			t.Errorf("p=%g: threshold %d maps to %v, below p", p, th, float64(th)/two63)
		}
	}
}

// TestSkipRange: skipping is consuming, one output at a time, while the
// output lies in the range, and stops at max.
func TestSkipRange(t *testing.T) {
	th := Float64Threshold(0.01)
	span := uint64(ResampleAt) - th
	for _, seed := range testSeeds {
		for _, max := range []uint64{0, 1, 5, LongLag - 1, LongLag, 3*LongLag + 7} {
			st, ref := New(seed), New(seed)
			for round := 0; round < 20; round++ {
				n := st.SkipRange(th, span, max)
				var want uint64
				for want < max {
					save := *ref
					if uint64(ref.Int63())-th >= span {
						*ref = save
						break
					}
					want++
				}
				if n != want {
					t.Fatalf("seed %d max %d round %d: skipped %d, want %d", seed, max, round, n, want)
				}
				if g, w := st.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d max %d round %d: next output %#x, want %#x", seed, max, round, g, w)
				}
			}
		}
	}
}

// FuzzReplayMatchesMathRand: for any seed and any mix of draw kinds and
// arguments, the replay and rand.Rand over the stock source return the
// same values.
func FuzzReplayMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3}, uint64(1000))
	f.Add(int64(-7), []byte{1, 1, 1}, uint64(1<<30+1))
	f.Add(int64(math.MinInt64), []byte{2, 0}, uint64(64))
	f.Add(int64(math.MaxInt64), []byte{3}, uint64(1<<40+3))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, n uint64) {
		arg := int(n % math.MaxInt64)
		if arg == 0 {
			arg = 1
		}
		if len(ops) == 0 {
			ops = []byte{0}
		}
		st, ref := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2*LongLag+len(ops); i++ {
			switch op := ops[i%len(ops)] % 4; op {
			case 0:
				if g, w := st.Int63(), ref.Int63(); g != w {
					t.Fatalf("draw %d: Int63 %d, want %d", i, g, w)
				}
			case 1:
				if g, w := st.Intn(arg), ref.Intn(arg); g != w {
					t.Fatalf("draw %d: Intn(%d) = %d, want %d", i, arg, g, w)
				}
			case 2:
				if g, w := st.Float64(), ref.Float64(); g != w {
					t.Fatalf("draw %d: Float64 %v, want %v", i, g, w)
				}
			case 3:
				a := int32(arg%math.MaxInt32) + 1
				if g, w := st.Int31n(a), ref.Int31n(a); g != w {
					t.Fatalf("draw %d: Int31n(%d) = %d, want %d", i, a, g, w)
				}
			}
		}
	})
}
