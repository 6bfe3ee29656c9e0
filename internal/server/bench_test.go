package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// benchScale keeps the one-off cold evaluations behind the hit
// benchmarks cheap; the hit path's cost does not depend on it.
const benchScale = 0.02

// serveOnce runs one request through the handler in-process (no
// socket), failing the benchmark on any status but 200 or a cache
// header other than want.
func serveOnce(b *testing.B, h http.Handler, path, body, want string) {
	b.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	if want != "" {
		if got := rec.Header().Get("X-Ftspm-Cache"); got != want {
			b.Fatalf("%s: X-Ftspm-Cache = %q, want %q", path, got, want)
		}
	}
}

func newBenchServer(b *testing.B) http.Handler {
	b.Helper()
	s, err := New(Config{DataDir: b.TempDir(), DefaultScale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	return s.Handler()
}

// BenchmarkEvaluateHit times a warm /v1/evaluate: the key was computed
// by a cold request and already hit once before the timer starts.
func BenchmarkEvaluateHit(b *testing.B) {
	h := newBenchServer(b)
	const body = `{"workload":"sha","structure":"ftspm"}`
	serveOnce(b, h, "/v1/evaluate", body, "miss")
	serveOnce(b, h, "/v1/evaluate", body, "hit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, "/v1/evaluate", body, "hit")
	}
}

// BenchmarkMapHit times a warm full-suite /v1/map (every workload on
// every structure), composed entirely of cache hits.
func BenchmarkMapHit(b *testing.B) {
	h := newBenchServer(b)
	serveOnce(b, h, "/v1/map", `{}`, "")
	serveOnce(b, h, "/v1/map", `{}`, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, "/v1/map", `{}`, "")
	}
}

// BenchmarkEvaluateMiss times a cold /v1/evaluate: each iteration asks
// for a scale no earlier request used, near 0.01 like the misses of
// perfbench's serve workload, so every request simulates.
func BenchmarkEvaluateMiss(b *testing.B) {
	h := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := `{"workload":"sha","structure":"ftspm","scale":` + strconv.FormatFloat(0.01+float64(i)*1e-9, 'g', -1, 64) + `}`
		serveOnce(b, h, "/v1/evaluate", body, "miss")
	}
}
