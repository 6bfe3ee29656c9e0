package simd

import "math/rand"

// math/rand's default source is an additive lagged-Fibonacci generator:
// its n-th output is y[n] = y[n-607] + y[n-273] (mod 2^64), so the
// first 607 outputs of a seed fix every later one. The strike planner
// replays that stream a block of 607 values at a time, which lets it
// scan a block for the next strike with one compare per access instead
// of paying an interface-dispatched rand.Float64 for every draw.
const (
	lagLong  = 607
	lagShort = 273

	int63Mask = 1<<63 - 1
	// resampleAt is the least Int63 draw that rand.Float64 rounds to
	// 1.0; Float64 discards such a draw and draws again.
	resampleAt = 1<<63 - 512
)

// stream is a rand.Source64 yielding exactly the values of
// rand.NewSource(seed). The stock source, reseeded in place, supplies
// the first block; every later block is regenerated from the one
// before it.
type stream struct {
	seeder rand.Source64
	vec    [lagLong]uint64 // the current block of outputs
	pos    int             // index into vec of the next output
}

func newStream() *stream {
	return &stream{seeder: rand.NewSource(0).(rand.Source64), pos: lagLong}
}

// Seed restarts the stream at the first output of seed.
func (s *stream) Seed(seed int64) {
	s.seeder.Seed(seed)
	for i := range s.vec {
		s.vec[i] = s.seeder.Uint64()
	}
	s.pos = 0
}

// refill advances vec to the next 607 outputs. Entry i becomes
// y[n+607+i] = y[n+i] + y[n+334+i]: for i < 273 the second term is
// still in the old block, after that it is the new entry i-273.
func (s *stream) refill() {
	v := &s.vec
	for i := 0; i < lagShort; i++ {
		v[i] += v[i+lagLong-lagShort]
	}
	for i := lagShort; i < lagLong; i++ {
		v[i] += v[i-lagShort]
	}
	s.pos = 0
}

func (s *stream) Uint64() uint64 {
	if s.pos == lagLong {
		s.refill()
	}
	x := s.vec[s.pos]
	s.pos++
	return x
}

func (s *stream) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// strikeThreshold returns the least x with !(float64(x)/(1<<63) < p):
// an accepted rand.Float64 draw is below p exactly when the Int63 draw
// behind it is below the threshold. The float expression is monotone
// in x, so the binary search is exact; p >= 1 gives resampleAt, the
// bound of every accepted draw.
func strikeThreshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(resampleAt)
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
