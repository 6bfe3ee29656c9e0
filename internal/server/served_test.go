package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ftspm/internal/core"
	"ftspm/internal/workloads"
)

// postLocal runs one POST through h in-process (no socket) and fails
// the test on any status but 200.
func postLocal(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
	}
	return rec
}

// checkReencodes decodes an /v1/evaluate or /v1/map body into its
// response struct, encodes that again with writeJSON, and requires the
// bytes it was decoded from: a body joined from encoded-once fragments
// must be exactly what encoding the reply would have written.
func checkReencodes(t *testing.T, path string, body []byte) {
	t.Helper()
	var v any = new(EvaluateResponse)
	if path == "/v1/map" {
		v = new(MapResponse)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: decode: %v\n%s", path, err, body)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("%s: body differs from its re-encoding:\n%s\nre-encoded:\n%s", path, body, rec.Body.Bytes())
	}
}

var elapsedField = regexp.MustCompile(`"elapsed_ms": [0-9]+`)

// blankElapsed zeroes a body's elapsed_ms, the one field identical
// requests may answer differently.
func blankElapsed(body []byte) string {
	return string(elapsedField.ReplaceAll(body, []byte(`"elapsed_ms": 0`)))
}

// postConcurrent posts body to path from n goroutines at once and
// returns the bodies.
func postConcurrent(t *testing.T, h http.Handler, path, body string, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("%s %s: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
			}
			out[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// Every cached /v1/evaluate and /v1/map body, cold, warm (memoizing
// and memoized hits), collapsed onto a concurrent miss, full-suite and
// subset, is byte for byte what writeJSON writes for the decoded reply.
func TestServedBodiesReencode(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), DefaultScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const eval = `{"workload":"sha","structure":"ftspm"}`
	for i, want := range []string{"miss", "hit", "hit"} {
		rec := postLocal(t, h, "/v1/evaluate", eval)
		if got := rec.Header().Get("X-Ftspm-Cache"); got != want {
			t.Fatalf("evaluate %d: X-Ftspm-Cache = %q, want %q", i, got, want)
		}
		checkReencodes(t, "/v1/evaluate", rec.Body.Bytes())
	}
	for _, body := range []string{`{"workloads":["fft","sha"],"structures":["sram","ftspm"]}`, `{}`} {
		for i := 0; i < 3; i++ {
			checkReencodes(t, "/v1/map", postLocal(t, h, "/v1/map", body).Body.Bytes())
		}
	}

	// Concurrent identical cold requests, each round on a fresh scale,
	// until one round collapsed a waiter onto the executing request.
	for round := 0; ; round++ {
		if round == 10 {
			t.Fatal("no concurrent miss collapsed in 10 rounds")
		}
		before := s.cache.Stats().Collapsed
		scale := 0.01 + float64(round)*1e-6
		evals := postConcurrent(t, h, "/v1/evaluate", fmt.Sprintf(`{"workload":"fft","structure":"stt","scale":%g}`, scale), 4)
		maps := postConcurrent(t, h, "/v1/map", fmt.Sprintf(`{"workloads":["crc32"],"structures":["dmr","ftspm"],"scale":%g}`, scale), 3)
		for path, bodies := range map[string][][]byte{"/v1/evaluate": evals, "/v1/map": maps} {
			for _, body := range bodies {
				checkReencodes(t, path, body)
				if path == "/v1/evaluate" && blankElapsed(body) != blankElapsed(bodies[0]) {
					t.Fatalf("concurrent evaluate bodies differ:\n%s\n%s", body, bodies[0])
				}
			}
		}
		if s.cache.Stats().Collapsed > before {
			break
		}
	}
}

// A NoCache server and a cached one answer every workload × structure
// on /v1/evaluate, and a full-suite and a subset /v1/map, with the
// same bodies up to elapsed_ms: cold, on the memoizing hit, and on a
// memoized hit.
func TestNoCacheBodiesMatchCached(t *testing.T) {
	var h [2]http.Handler // NoCache, cached
	for i := range h {
		s, err := New(Config{DataDir: t.TempDir(), DefaultScale: 0.02, NoCache: i == 0})
		if err != nil {
			t.Fatal(err)
		}
		h[i] = s.Handler()
	}
	check := func(path, body string, entries int) {
		t.Helper()
		want := blankElapsed(postLocal(t, h[0], path, body).Body.Bytes())
		for i, state := range []string{"cold", "memoizing hit", "memoized hit"} {
			rec := postLocal(t, h[1], path, body)
			if path == "/v1/evaluate" {
				if got, wantHdr := rec.Header().Get("X-Ftspm-Cache"), map[bool]string{false: "miss", true: "hit"}[i > 0]; got != wantHdr {
					t.Fatalf("%s %s %s: X-Ftspm-Cache = %q, want %q", path, body, state, got, wantHdr)
				}
			}
			if path == "/v1/map" && i == 1 {
				// A NoCache batch counts every entry a miss; a warm
				// batch counts every entry a hit.
				misses := fmt.Sprintf("\"cache_hits\": 0,\n  \"cache_misses\": %d,", entries)
				if !strings.Contains(want, misses) {
					t.Fatalf("%s %s: NoCache body lacks %q:\n%s", path, body, misses, want)
				}
				want = strings.Replace(want, misses, fmt.Sprintf("\"cache_hits\": %d,\n  \"cache_misses\": 0,", entries), 1)
			}
			if got := blankElapsed(rec.Body.Bytes()); got != want {
				t.Fatalf("%s %s %s: cached body differs from NoCache body:\n%s\nNoCache:\n%s", path, body, state, got, want)
			}
		}
	}
	for _, w := range workloads.Names() {
		for _, st := range core.Structures() {
			check("/v1/evaluate", fmt.Sprintf(`{"workload":%q,"structure":%q}`, w, st), 1)
		}
	}
	// Each map at a scale no request above used, so the cached
	// server's first batch is cold.
	check("/v1/map", `{"workloads":["sha","fft"],"structures":["ftspm","stt"],"scale":0.015}`, 4)
	check("/v1/map", `{"scale":0.016}`, len(workloads.Names())*len(core.Structures()))
}

// mapAllocsPerEntry bounds the allocations of a warm full-suite /v1/map
// per entry, the whole request (request, recorder, body decode, reply)
// spread over its entries. A warm entry costs one key marshal, one
// cache lookup and a copy of its encoded-once fragment: 6.5
// allocations per entry over 36 entries (go1.24), to which the bound
// adds a margin of 3.5. Encoding each entry per request again costs
// about 90 more.
const mapAllocsPerEntry = 10

// A warm /v1/map does not encode its entries again.
func TestWarmMapDoesNotReencode(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), DefaultScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	postLocal(t, h, "/v1/map", `{}`) // cold
	postLocal(t, h, "/v1/map", `{}`) // memoizing hits
	entries := len(workloads.Names()) * len(core.Structures())
	allocs := testing.AllocsPerRun(5, func() { postLocal(t, h, "/v1/map", `{}`) })
	if perEntry := allocs / float64(entries); perEntry > mapAllocsPerEntry {
		t.Fatalf("warm /v1/map: %.0f allocations, %.1f per entry, want at most %d", allocs, perEntry, mapAllocsPerEntry)
	} else {
		t.Logf("warm /v1/map: %.0f allocations over %d entries, %.1f per entry", allocs, entries, perEntry)
	}
}
