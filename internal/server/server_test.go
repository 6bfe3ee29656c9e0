package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, data)
		}
	}
	return resp
}

// gatedEval installs a stub evaluation that signals entry and blocks
// until released (or its ctx expires). A workload named "panic" panics;
// one named "unknown" returns ErrUnknownWorkload.
func gatedEval(s *Server) (entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	s.evalFn = func(ctx context.Context, req EvaluateRequest, _ core.Structure) (*EvaluateResponse, error) {
		switch req.Workload {
		case "panic":
			panic("kaboom")
		case "unknown":
			return nil, fmt.Errorf("%w: %q", experiments.ErrUnknownWorkload, req.Workload)
		case "boom":
			return nil, errors.New("boom")
		}
		entered <- struct{}{}
		select {
		case <-release:
			return &EvaluateResponse{Run: experiments.RunSummary{Workload: req.Workload}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return entered, release
}

func waitEntered(t *testing.T, entered chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("evaluation %d/%d never started", i+1, n)
		}
	}
}

// TestOverloadShedsDeterministically is the acceptance test for the
// shed-don't-collapse contract: with MaxEvaluate=2 and EvaluateQueue=2
// the server admits exactly 4 concurrent evaluates; at 2× that load the
// excess 4 are shed immediately with 429 + Retry-After, every admitted
// request completes, and every request receives a definite response —
// zero silent drops.
func TestOverloadShedsDeterministically(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxEvaluate:   2,
		EvaluateQueue: 2,
		RetryAfter:    100 * time.Millisecond,
		Breaker:       BreakerConfig{ShedTrip: 1000, ShedWindow: time.Hour},
	})
	entered, release := gatedEval(s)

	type reply struct {
		code int
		body []byte
	}
	results := make(chan reply, 8)
	fire := func() {
		go func() {
			resp, body := postJSONQuiet(ts.URL+"/v1/evaluate", `{"workload":"w","structure":"ftspm"}`)
			results <- reply{resp, body}
		}()
	}

	// Fill the active slots, then the queue.
	fire()
	fire()
	waitEntered(t, entered, 2)
	fire()
	fire()
	waitQueue(t, s.evalLim, 2)

	// 2× capacity: the next 4 must be shed synchronously with 429.
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"w","structure":"ftspm"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: code %d, want 429\n%s", i, resp.StatusCode, body)
		}
		ra := resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(ra)
		if err != nil || secs < 1 {
			t.Fatalf("overload request %d: Retry-After = %q, want whole seconds >= 1", i, ra)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterMS <= 0 {
			t.Fatalf("overload request %d: body %s, want retry_after_ms > 0", i, body)
		}
	}

	// Release the gate: all 4 admitted requests must complete with 200.
	close(release)
	for i := 0; i < 4; i++ {
		select {
		case r := <-results:
			if r.code != http.StatusOK {
				t.Fatalf("admitted request: code %d, want 200\n%s", r.code, r.body)
			}
			var er EvaluateResponse
			if err := json.Unmarshal(r.body, &er); err != nil || er.Run.Workload != "w" {
				t.Fatalf("admitted request: bad body %s (%v)", r.body, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("admitted request never completed: silent drop")
		}
	}
	if got := s.evalLim.sheds.Load(); got != 4 {
		t.Fatalf("sheds = %d, want exactly 4", got)
	}
	waitIdle(t, s.evalLim)
}

func postJSONQuiet(url, body string) (int, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func waitQueue(t *testing.T, l *limiter, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if l.status().Queued == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d (status %+v)", want, l.status())
}

func waitIdle(t *testing.T, l *limiter) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := l.status(); st.Active == 0 && st.Queued == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("limiter never drained (status %+v)", l.status())
}

// TestQueuedEvaluateDeadline checks a request whose deadline expires
// while still queued is shed with 503 + Retry-After instead of hanging.
func TestQueuedEvaluateDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxEvaluate:   1,
		EvaluateQueue: 2,
		RetryAfter:    50 * time.Millisecond,
		Breaker:       BreakerConfig{ShedTrip: 1000},
	})
	entered, release := gatedEval(s)
	done := make(chan int, 1)
	go func() {
		code, _ := postJSONQuiet(ts.URL+"/v1/evaluate", `{"workload":"w","structure":"ftspm"}`)
		done <- code
	}()
	waitEntered(t, entered, 1)

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/evaluate",
		`{"workload":"w","structure":"ftspm","timeout_ms":80}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-timeout request: code %d, want 503\n%s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("queued-timeout request took %v, want prompt shedding", elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queued-timeout reply missing Retry-After")
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("gated request: code %d, want 200", code)
	}
}

// TestBreakerTripsReadyzAndRecovers drives the error-rate breaker with
// a failing stub and a fake clock: /readyz must go 503/open after the
// spike and return to 200/closed once the cooldown elapses.
func TestBreakerTripsReadyzAndRecovers(t *testing.T) {
	s, ts := newTestServer(t, Config{Breaker: testBreakerCfg})
	clk := newFakeClock()
	s.nowFn = clk.now
	gatedEval(s)

	var st ReadyStatus
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != http.StatusOK || !st.Ready {
		t.Fatalf("initial readyz: %d %+v, want 200 ready", resp.StatusCode, st)
	}
	for i := 0; i < 4; i++ { // MinSamples=4, all errors
		resp, _ := postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"boom","structure":"ftspm"}`)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing evaluate %d: code %d, want 500", i, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != http.StatusServiceUnavailable ||
		st.Ready || st.Breaker != "open" {
		t.Fatalf("post-spike readyz: %d %+v, want 503 breaker open", resp.StatusCode, st)
	}
	clk.advance(testBreakerCfg.Cooldown + time.Second)
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != http.StatusOK ||
		!st.Ready || st.Breaker != "closed" {
		t.Fatalf("post-cooldown readyz: %d %+v, want 200 breaker closed", resp.StatusCode, st)
	}
}

// TestShedSaturationTripsReadyz checks hard shedding (pool saturation)
// also trips readiness, steering traffic away from a saturated
// instance.
func TestShedSaturationTripsReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxEvaluate:   1,
		EvaluateQueue: 1,
		Breaker:       testBreakerCfg, // ShedTrip=3 inside 5s
	})
	clk := newFakeClock()
	s.nowFn = clk.now
	entered, release := gatedEval(s)
	defer close(release)

	results := make(chan int, 2)
	for i := 0; i < 2; i++ { // one active, one queued
		go func() {
			code, _ := postJSONQuiet(ts.URL+"/v1/evaluate", `{"workload":"w","structure":"ftspm"}`)
			results <- code
		}()
	}
	waitEntered(t, entered, 1)
	waitQueue(t, s.evalLim, 1)
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"w","structure":"ftspm"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shed %d: code %d, want 429", i, resp.StatusCode)
		}
	}
	var st ReadyStatus
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != http.StatusServiceUnavailable ||
		st.Breaker != "open" {
		t.Fatalf("saturated readyz: %d %+v, want 503 breaker open", resp.StatusCode, st)
	}
	if st.Evaluate.Shed != 3 {
		t.Fatalf("readyz shed count = %d, want 3", st.Evaluate.Shed)
	}
}

// TestPanicIsolation checks a panicking request answers 500 alone while
// the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, release := gatedEval(s)
	close(release)

	resp, body := postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"panic","structure":"ftspm"}`)
	if resp.StatusCode != http.StatusInternalServerError ||
		!bytes.Contains(body, []byte("internal panic")) {
		t.Fatalf("panicking request: %d %s, want 500 internal panic", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"w","structure":"ftspm"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: %d %s, want 200", resp.StatusCode, body)
	}
}

func TestEvaluateValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gatedEval(s)
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"workload":"w","structure":"ftspm","bogus":1}`},
		{"missing workload", `{"structure":"ftspm"}`},
		{"bad structure", `{"workload":"w","structure":"quantum"}`},
		{"unknown workload", `{"workload":"unknown","structure":"ftspm"}`},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400\n%s", tc.name, resp.StatusCode, body)
		}
	}
	// Validation failures are client errors: the breaker must stay
	// clean.
	var st ReadyStatus
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after client errors: %d, want 200", resp.StatusCode)
	}
}

// TestParseStructure checks that /v1/evaluate resolves every accepted
// structure spelling to the right core.Structure before evaluating, and
// that an unknown name is a 400 carrying core.ErrUnknownStructure's text.
func TestParseStructure(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var got core.Structure
	s.evalFn = func(_ context.Context, req EvaluateRequest, st core.Structure) (*EvaluateResponse, error) {
		got = st
		return &EvaluateResponse{Run: experiments.RunSummary{Workload: req.Workload}}, nil
	}
	cases := map[string]core.Structure{
		"ftspm":     core.StructFTSPM,
		"FTSPM":     core.StructFTSPM,
		"sram":      core.StructPureSRAM,
		"pure-SRAM": core.StructPureSRAM,
		"stt":       core.StructPureSTT,
		"dmr":       core.StructDMR,
	}
	for name, want := range cases {
		got = -1
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", fmt.Sprintf(`{"workload":"w","structure":%q}`, name))
		if resp.StatusCode != http.StatusOK || got != want {
			t.Errorf("structure %q: code %d, resolved %v; want 200, %v\n%s", name, resp.StatusCode, got, want, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"w","structure":"quantum"}`)
	if resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), core.ErrUnknownStructure.Error()) {
		t.Errorf("structure quantum: code %d, body %s; want 400 naming ErrUnknownStructure", resp.StatusCode, body)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gatedEval(s)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, ep := range []string{"/v1/evaluate", "/v1/sweep", "/v1/soak"} {
		resp, body := postJSON(t, ts.URL+ep, `{}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s while draining: %d, want 503\n%s", ep, resp.StatusCode, body)
		}
	}
	var st ReadyStatus
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != http.StatusServiceUnavailable ||
		!st.Draining {
		t.Fatalf("draining readyz: %d %+v, want 503 draining", resp.StatusCode, st)
	}
	// Liveness is unaffected by drain.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
}

func TestJobEndpointsUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp := getJSON(t, ts.URL+"/v1/jobs/soak-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/soak-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, ep, body string
	}{
		{"sweep resume unnamed", "/v1/sweep", `{"resume":true}`},
		{"soak resume unnamed", "/v1/soak", `{"resume":true}`},
		{"soak bad structure", "/v1/soak", `{"structures":["quantum"]}`},
		{"sweep bad checkpoint", "/v1/sweep", `{"checkpoint":"../evil"}`},
		{"soak bad checkpoint", "/v1/soak", `{"checkpoint":"a/b"}`},
		{"sweep negative scale", "/v1/sweep", `{"scale":-1}`},
		{"evaluate negative scale", "/v1/evaluate", `{"workload":"sha","structure":"ftspm","scale":-1}`},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.ep, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400\n%s", tc.name, resp.StatusCode, body)
		}
	}
}

// TestSoakLanesOutOfRange: a soak body with an out-of-range number (a
// lane width outside 0..64, a strike probability outside [0, 1],
// negative trials or scale) is answered 400 naming the field before any
// job is submitted, never clamped or defaulted to a value that runs.
func TestSoakLanesOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ body, want string }{
		{`{"trials":1,"scale":0.01,"lanes":-7}`, "lanes must be in 0..64"},
		{`{"trials":1,"scale":0.01,"lanes":65}`, "lanes must be in 0..64"},
		{`{"trials":1,"scale":0.01,"lanes":999}`, "lanes must be in 0..64"},
		{`{"trials":1,"scale":0.01,"strike":1.5}`, "strike must be a probability in [0, 1]"},
		{`{"trials":1,"scale":0.01,"strike":-0.5}`, "strike must be a probability in [0, 1]"},
		{`{"trials":-3,"scale":0.01}`, "trials must be"},
		{`{"trials":1,"scale":-1}`, "scale must be"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/soak", tc.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: code %d, want 400 naming %q\n%s", tc.body, resp.StatusCode, tc.want, body)
		}
	}
	var jobs JobList
	getJSON(t, ts.URL+"/v1/jobs", &jobs)
	if len(jobs.Jobs) != 0 {
		t.Fatalf("rejected soaks submitted %d jobs, the first %s", len(jobs.Jobs), jobs.Jobs[0].ID)
	}
}

func TestResolveCheckpoint(t *testing.T) {
	good := []string{"run1.ckpt", "a-b_c.d", "X9"}
	for _, name := range good {
		got, err := resolveCheckpoint(name, "def")
		if err != nil || got != name {
			t.Errorf("resolveCheckpoint(%q) = %q, %v; want accepted", name, got, err)
		}
	}
	bad := []string{"../evil", "a/b", `a\b`, ".", "..", ".hidden", "-dash", ""}
	for _, name := range bad[:len(bad)-1] {
		if _, err := resolveCheckpoint(name, "def"); err == nil {
			t.Errorf("resolveCheckpoint(%q): want rejection", name)
		}
	}
	if got, err := resolveCheckpoint("", "fallback"); err != nil || got != "fallback" {
		t.Errorf("empty checkpoint: got %q, %v; want fallback", got, err)
	}
}
