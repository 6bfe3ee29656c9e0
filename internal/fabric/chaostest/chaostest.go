// Package chaostest is the fabric's deterministic chaos harness: a
// FakeWorker is a real ftspmd handler (the genuine /v1/fabric and
// /healthz code paths) wrapped in a scriptable fault injector that can
// refuse connections, shed placements with 429, start slowly, cut the
// connection after a scripted number of streamed lines, or hang
// mid-stream until the coordinator's lease gives up on it. Faults are
// scripted by line count, not by timing, so a chaos run exercises the
// same failure sequence on every machine; the test oracle is
// byte-identity of the merged report against a single-node golden run.
package chaostest

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ftspm/internal/server"
)

// Script describes one worker's misbehaviour. The zero value of the
// line-count fields means "fire immediately"; use Off (or DefaultScript)
// to disable a fault.
type Script struct {
	// KillAfterLines cuts the connection (hijack + close, no trailer)
	// once this many stream lines have been written. Off disables.
	KillAfterLines int
	// HangAfterLines stops streaming after this many lines and blocks
	// until the coordinator abandons the connection — the shape of a
	// hung-but-alive worker only the lease watchdog can detect. Off
	// disables.
	HangAfterLines int
	// Once clears the kill/hang faults after their first firing, so the
	// worker is healthy for re-placements (a crashed-and-restarted
	// worker rather than a persistently broken one).
	Once bool
	// StayDown takes the worker down for good when the kill fires:
	// every later request, probes included, aborts as SetDown(true)
	// makes it (a crashed host that does not come back).
	StayDown bool
	// Shed429 answers this worker's first N placements with 429.
	Shed429 int
	// SlowStart delays each placement's first byte.
	SlowStart time.Duration
}

// Off disables a line-count fault.
const Off = -1

// DefaultScript is a fault-free script.
func DefaultScript() Script {
	return Script{KillAfterLines: Off, HangAfterLines: Off}
}

// FakeWorker is one scriptable cluster member.
type FakeWorker struct {
	ts    *httptest.Server
	inner http.Handler

	mu         sync.Mutex
	script     Script
	down       bool
	placements int
	probes     int
}

// New starts a fake worker backed by a real server handler. It is
// stopped via t.Cleanup.
func New(t testing.TB) *FakeWorker {
	return NewWithServerConfig(t, server.Config{})
}

// NewWithServerConfig starts a fake worker whose inner server uses the
// given config — the hook for integrity drills: a byzantine worker is
// built with ChaosCorruptFrac > 0, a version-skewed one with a foreign
// Fingerprint. DataDir defaults to a test temp dir.
func NewWithServerConfig(t testing.TB, cfg server.Config) *FakeWorker {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("chaostest: server: %v", err)
	}
	fw := &FakeWorker{inner: srv.Handler(), script: DefaultScript()}
	fw.ts = httptest.NewServer(http.HandlerFunc(fw.handle))
	t.Cleanup(fw.ts.Close)
	return fw
}

// URL returns the worker's base URL.
func (fw *FakeWorker) URL() string { return fw.ts.URL }

// SetScript replaces the fault script.
func (fw *FakeWorker) SetScript(s Script) {
	fw.mu.Lock()
	fw.script = s
	fw.mu.Unlock()
}

// SetDown makes every request (probes included) abort at the
// connection level, as a dead host would.
func (fw *FakeWorker) SetDown(v bool) {
	fw.mu.Lock()
	fw.down = v
	fw.mu.Unlock()
}

// Placements counts /v1/fabric requests this worker has accepted.
func (fw *FakeWorker) Placements() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.placements
}

// Probes counts /healthz requests this worker has received, down or
// not.
func (fw *FakeWorker) Probes() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.probes
}

func (fw *FakeWorker) clearOnce() {
	fw.mu.Lock()
	if fw.script.Once {
		fw.script.KillAfterLines = Off
		fw.script.HangAfterLines = Off
	}
	fw.mu.Unlock()
}

// killed applies the script's aftermath of a fired kill.
func (fw *FakeWorker) killed() {
	fw.clearOnce()
	fw.mu.Lock()
	if fw.script.StayDown {
		fw.down = true
	}
	fw.mu.Unlock()
}

func (fw *FakeWorker) handle(w http.ResponseWriter, r *http.Request) {
	fw.mu.Lock()
	down := fw.down
	sc := fw.script
	if r.URL.Path == "/healthz" {
		fw.probes++
	}
	if r.URL.Path == "/v1/fabric" && !down {
		fw.placements++
		if sc.Shed429 > 0 {
			fw.script.Shed429--
		}
	}
	fw.mu.Unlock()

	if down {
		panic(http.ErrAbortHandler) // connection reset, no reply
	}
	if r.URL.Path != "/v1/fabric" {
		fw.inner.ServeHTTP(w, r)
		return
	}
	if sc.Shed429 > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"chaos shed"}`))
		return
	}
	if sc.SlowStart > 0 {
		select {
		case <-time.After(sc.SlowStart):
		case <-r.Context().Done():
			return
		}
	}
	fw.inner.ServeHTTP(&faultWriter{w: w, fw: fw, sc: sc, done: r.Context().Done()}, r)
}

var errKilled = errors.New("chaostest: connection killed by script")

// faultWriter counts streamed lines and fires the scripted kill/hang.
// Faults surface as write errors, never panics, so the real handler
// underneath winds down through its normal stream-error path.
type faultWriter struct {
	w     http.ResponseWriter
	fw    *FakeWorker
	sc    Script
	done  <-chan struct{}
	lines int
	dead  bool
}

func (f *faultWriter) Header() http.Header  { return f.w.Header() }
func (f *faultWriter) WriteHeader(code int) { f.w.WriteHeader(code) }

func (f *faultWriter) Flush() {
	if f.dead {
		return
	}
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
}

func (f *faultWriter) Write(p []byte) (int, error) {
	if f.dead {
		return 0, errKilled
	}
	if f.sc.KillAfterLines != Off && f.lines >= f.sc.KillAfterLines {
		f.dead = true
		f.fw.killed()
		if hj, ok := f.w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return 0, errKilled
	}
	if f.sc.HangAfterLines != Off && f.lines >= f.sc.HangAfterLines {
		f.dead = true
		f.fw.clearOnce()
		<-f.done // hold the stream open until the coordinator gives up
		return 0, errKilled
	}
	n, err := f.w.Write(p)
	f.lines += bytes.Count(p[:n], []byte{'\n'})
	return n, err
}
