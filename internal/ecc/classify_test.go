package ecc

import (
	"math/rand"
	"testing"
)

// checkClassify compares Classify(delta) with the Decode status of
// Encode(data) XOR delta, delta cut to the pattern width Classify
// accepts.
func checkClassify(t *testing.T, c Codec, data, delta uint64) {
	t.Helper()
	delta &= lowMask(min(c.CodeBits(), 64))
	code := c.Encode(BitsFromUint64(data & lowMask(c.DataBits())))
	_, want := c.Decode(code.Xor(BitsFromUint64(delta)))
	if got := c.(PatternClassifier).Classify(delta); got != want {
		t.Fatalf("%s data %#x delta %#x: Classify %v, Decode %v", c.Name(), data, delta, got, want)
	}
}

// TestClassifyMatchesDecode checks every one- and two-bit pattern and
// random clusters of up to 8 adjacent flips (the MBU envelope the soak
// engine produces) over random payloads, for every codec width.
func TestClassifyMatchesDecode(t *testing.T) {
	var codecs []Codec
	for _, k := range []int{8, 16, 32, 64} {
		codecs = append(codecs, MustHamming(k))
	}
	for _, mk := range []func(int) (Codec, error){
		func(k int) (Codec, error) { return NewParity(k) },
		func(k int) (Codec, error) { return NewRaw(k) },
		func(k int) (Codec, error) { return NewDMR(k) },
	} {
		c, err := mk(32)
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range codecs {
		n := min(c.CodeBits(), 64)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				checkClassify(t, c, rng.Uint64(), 1<<uint(i)|1<<uint(j))
			}
		}
		for round := 0; round < 2000; round++ {
			cluster := uint64(1)<<uint(rng.Intn(9)) - 1
			checkClassify(t, c, rng.Uint64(), cluster<<uint(rng.Intn(n)))
		}
	}
}

// FuzzClassifyMatchesDecode cross-checks the pattern status of every
// codec against its scalar Decode on arbitrary payloads and arbitrary
// patterns, including ones no strike process produces.
func FuzzClassifyMatchesDecode(f *testing.F) {
	codecs := fuzzCodecs(f)
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0xdeadbeefcafef00d), uint64(1))
	f.Add(^uint64(0), uint64(3))
	f.Add(uint64(42), uint64(1<<38|1))
	f.Add(uint64(0x5555aaaa5555aaaa), ^uint64(0))
	f.Fuzz(func(t *testing.T, data, delta uint64) {
		for _, c := range codecs {
			checkClassify(t, c, data, delta)
		}
	})
}
