package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ftspm/internal/trace"
)

// goldenTraceDigests pins the generator itself: the SHA-256 of each
// workload's trace.WriteAll text encoding at scale 0.05. The other
// trace tests compare two outputs of the same generator, so a change
// that alters both alike would pass them; this table catches it. The
// digests were taken before the generator's random source was
// replaced by a block replay of math/rand, and must never be
// regenerated to make a generator change pass.
var goldenTraceDigests = map[string]string{
	"casestudy":    "1db45801ba5b3eed84a138efeea37ad294c7fcedb98768b9437a19eb06b0f3cf",
	"qsort":        "a0659e13436c6df51b89321171deccb4d1e2fd525dff6c10832c4dbca152c035",
	"sha":          "abd3c47f84a981a58e43268f5373849c9b3b7b346a6e88fb61fefbd196efa119",
	"crc32":        "681e94ec5341cf040f5d1804397d83b6f208c80853ba15913c994d0c626ca775",
	"dijkstra":     "9c814c433dcb7087b93b3f87c613cd804449a400e205837301ea782d8679e310",
	"fft":          "20fe773685943ebb7939ae87d5820d69702d3b4ca3eeb2a385592e7243fc665d",
	"stringsearch": "a446021283962ba179f324292b27a5039995831e73e01c335016f81d44cd1eb6",
	"bitcount":     "3aa64edf883fe00854409dcf53ac49c19b900ca2a8b97d1be29331447f87604a",
	"basicmath":    "e2ba544cdc491c3f9ab31f8285b3e3af63bba07dc294b3e13490879c14a1a8c6",
	"susan":        "85ea2eb1b6c9128caefe266911c6cfdb24fd8718d5e9b4b5f655fda35cbccb9a",
	"jpeg":         "2ab2a3873247b241cd45ea924399d5d777b06cea0cd833daac186c5ffb5066ba",
	"adpcm":        "c4cb6e649cb16e8d96983ac5944c5928bebdb34ed7e7d6f87b8639ea58d845f3",
	"patricia":     "a07e4ec95e27738a3362512f688f1d085077ecd9a5856ee636286ef3bc9699ac",
}

func traceDigest(t *testing.T, s trace.Stream) string {
	t.Helper()
	h := sha256.New()
	if err := trace.WriteAll(h, s); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceDigests checks both generator paths, the streamed one and
// the materialized one, against the golden digests.
func TestTraceDigests(t *testing.T) {
	for _, w := range All() {
		stream := traceDigest(t, w.TraceStream(0.05))
		slice := traceDigest(t, trace.Replay(w.TraceEvents(0.05)))
		want, ok := goldenTraceDigests[w.Name]
		if !ok {
			t.Errorf("%s: no golden digest", w.Name)
			continue
		}
		if stream != want {
			t.Errorf("%s: TraceStream digest %s, want %s", w.Name, stream, want)
		}
		if slice != want {
			t.Errorf("%s: TraceEvents digest %s, want %s", w.Name, slice, want)
		}
	}
	if len(goldenTraceDigests) != len(All()) {
		t.Errorf("%d golden digests for %d workloads", len(goldenTraceDigests), len(All()))
	}
}
