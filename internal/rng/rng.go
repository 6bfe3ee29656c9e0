// Package rng replays math/rand's default source, value for value, at
// a fraction of its cost. It is the module's one random source for the
// seeded hot loops that must reproduce a rand.New(rand.NewSource(seed))
// stream exactly: the workload trace generators and the packed strike
// planner.
//
// math/rand's default source is an additive lagged-Fibonacci
// generator: its n-th output is y[n] = y[n-607] + y[n-273] (mod 2^64),
// so the first 607 outputs of a seed fix every later one. Source keeps
// the current block of 607 outputs and regenerates the next block from
// it in place, so a draw is an array load instead of an
// interface-dispatched call into the stock source. Its Int63, Int31n,
// Intn and Float64 methods follow rand.Rand's arithmetic exactly,
// rejection and redraw loops included.
package rng

import "math/rand"

const (
	// LongLag is the block length: the recurrence's long lag.
	LongLag = 607
	// ShortLag is the recurrence's short lag.
	ShortLag = 273

	int63Mask = 1<<63 - 1
	// ResampleAt is the least Int63 draw that rand.Float64 rounds to
	// 1.0; Float64 discards such a draw and draws again.
	ResampleAt = 1<<63 - 512
)

// Source yields exactly the values of rand.NewSource(seed). The stock
// source, reseeded in place, supplies the first block; every later
// block is regenerated from the one before it. A Source is a
// rand.Source64, so rand.New over it draws the same stream too.
type Source struct {
	vec    [LongLag]uint64 // the current block of outputs
	pos    int             // index into vec of the next output
	seeder rand.Source64
}

var _ rand.Source64 = (*Source)(nil)

// New returns a Source at the first output of seed.
func New(seed int64) *Source {
	s := &Source{seeder: rand.NewSource(0).(rand.Source64)}
	s.Seed(seed)
	return s
}

// Seed restarts the source at the first output of seed.
func (s *Source) Seed(seed int64) {
	s.seeder.Seed(seed)
	s.SeedFrom(s.seeder)
}

// SeedFrom restarts the source with the next LongLag outputs of src as
// its first block; later blocks follow by the recurrence. With src a
// freshly seeded rand.NewSource this is Seed; other sources let tests
// plant chosen values. A zero Source is ready for use after SeedFrom.
func (s *Source) SeedFrom(src rand.Source64) {
	for i := range s.vec {
		s.vec[i] = src.Uint64()
	}
	s.pos = 0
}

// refill advances vec to the next 607 outputs. Entry i becomes
// y[n+607+i] = y[n+i] + y[n+334+i]: for i < 273 the second term is
// still in the old block, after that it is the new entry i-273.
func (s *Source) refill() {
	v := &s.vec
	for i := 0; i < ShortLag; i++ {
		v[i] += v[i+LongLag-ShortLag]
	}
	for i := ShortLag; i < LongLag; i++ {
		v[i] += v[i-ShortLag]
	}
	s.pos = 0
}

// Uint64 returns the next output.
func (s *Source) Uint64() uint64 {
	if s.pos == LongLag {
		s.refill()
	}
	x := s.vec[s.pos]
	s.pos++
	return x
}

// Int63 is rand.Rand.Int63.
func (s *Source) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// Int31 is rand.Rand.Int31.
func (s *Source) Int31() int32 { return int32(s.Int63() >> 32) }

// Float64 is rand.Rand.Float64, including its redraw of a value that
// rounds to 1.0.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int31n is rand.Rand.Int31n: a mask for a power of two, otherwise
// Int31 draws redrawn above the largest multiple of n. It panics if
// n <= 0.
func (s *Source) Int31n(n int32) int32 {
	return int32(s.Bounded(NewBound(int(n))))
}

// Intn is rand.Rand.Intn. It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return s.Bounded(NewBound(n))
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(s.Int63() & (n64 - 1))
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n64))
	v := s.Int63()
	for v > limit {
		v = s.Int63()
	}
	return int(v % n64)
}

// Bound is a precomputed Int31n argument: n and its rejection limit,
// so a loop drawing against a fixed n pays the division once.
type Bound struct {
	n     int32
	limit int32 // largest accepted Int31; -1 marks a power of two
}

// NewBound precomputes Int31n(n). It panics unless 0 < n < 2^31.
func NewBound(n int) Bound {
	if n <= 0 || n > 1<<31-1 {
		panic("rng: invalid argument to Int31n")
	}
	b := Bound{n: int32(n), limit: -1}
	if n&(n-1) != 0 {
		b.limit = int32((1 << 31) - 1 - (1<<31)%uint32(n))
	}
	return b
}

// Bounded is Intn(n) for the n of b, with b's precomputed limit.
func (s *Source) Bounded(b Bound) int {
	if b.limit < 0 {
		return int(s.Int31() & (b.n - 1))
	}
	v := s.Int31()
	for v > b.limit {
		v = s.Int31()
	}
	return int(v % b.n)
}

// SkipRange consumes leading outputs whose Int63 value x lies in
// [lo, lo+span), at most max of them, and returns how many it
// consumed. The output that ends the run, if any, stays unconsumed.
// A scan for the next draw outside a quiet range then costs one
// compare per output, a block at a time.
func (s *Source) SkipRange(lo, span, max uint64) uint64 {
	var n uint64
	v := &s.vec
	for n < max {
		if s.pos == LongLag {
			s.refill()
		}
		i, end := s.pos, LongLag
		if rem := max - n; rem < uint64(end-i) {
			end = i + int(rem)
		}
		for i < end && v[i]&int63Mask-lo < span {
			i++
		}
		n += uint64(i - s.pos)
		s.pos = i
		if i < end {
			break
		}
	}
	return n
}

// Float64Threshold returns the least x with !(float64(x)/(1<<63) < p):
// an accepted Float64 draw is below p exactly when the Int63 draw
// behind it is below the threshold. The float expression is monotone
// in x, so the binary search is exact; p >= 1 gives ResampleAt, the
// bound of every accepted draw.
func Float64Threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(ResampleAt)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
