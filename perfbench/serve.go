package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/resultcache"
	"ftspm/internal/server"
	"ftspm/internal/workloads"
)

// Serve's traffic mix: every run of ten requests holds eight
// /v1/evaluate hits on the pre-warmed set, one /v1/evaluate miss and one
// full-suite /v1/map answered from the pre-warmed set. The shares are
// stipulated, not measured from ftspmd traffic.
const (
	classHit = iota
	classMiss
	classMap
)

const (
	serveClients = 2
	warmScale    = 0.1
	// missScale is the base scale of misses; request i adds i*1e-9, so
	// no miss scale ever repeats and every miss is a miss whatever the
	// interleaving of the clients.
	missScale = 0.01
	// serveMaxRequests ends the timed phase early if it is reached
	// first: its 4000 misses plus the 39 pre-warmed entries stay within
	// the default result cache's 4096 entries, so nothing is evicted.
	serveMaxRequests = 40000
)

// warmKey is one pre-warmed (workload, structure) pair.
type warmKey struct {
	workload  string
	structure core.Structure
}

// warmKeys are the pre-warm set: the case study and the 12-workload
// suite on all three structures.
func warmKeys() []warmKey {
	names := append([]string{workloads.CaseStudyName}, workloads.Names()...)
	var keys []warmKey
	for _, n := range names {
		for _, s := range core.Structures() {
			keys = append(keys, warmKey{n, s})
		}
	}
	return keys
}

// serveReq is one generated request of the mix.
type serveReq struct {
	class int
	key   int     // index into warmKeys for hits and misses
	scale float64 // misses only
}

// splitmix64 is the mix's index-addressable generator, so request i is
// the same whichever client sends it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixRequest is request i of the mix. Which of the ten requests of
// i's run of ten is the miss and which the map is drawn from a hash of
// (seed, run); the key cycles through the warm set from a seed-derived
// offset, so every stretch of the mix touches the keys evenly.
func mixRequest(seed int64, i int64, nkeys int) serveReq {
	r := splitmix64(uint64(seed)<<32 ^ uint64(i/10))
	missPos := int64(r % 10)
	mapPos := (missPos + 1 + int64(r/10%9)) % 10
	key := int((splitmix64(uint64(seed)) + uint64(i)) % uint64(nkeys))
	switch i % 10 {
	case missPos:
		return serveReq{class: classMiss, key: key, scale: missScale + float64(i)*1e-9}
	case mapPos:
		return serveReq{class: classMap}
	default:
		return serveReq{class: classHit, key: key}
	}
}

func evaluateBody(k warmKey, scale float64) []byte {
	return []byte(`{"workload":"` + k.workload + `","structure":"` + k.structure.String() +
		`","scale":` + strconv.FormatFloat(scale, 'g', -1, 64) + `}`)
}

var mapBody = []byte(`{"scale":` + strconv.FormatFloat(warmScale, 'g', -1, 64) + `}`)

// evalKey is one /v1/evaluate request.
type evalKey struct {
	key   warmKey
	scale float64
}

// reply is one /v1/evaluate reply kept for the direct-call check.
type reply struct {
	evalKey
	body  []byte
	index int64 // completion index in the timed phase
}

// clientRec is what one client saw; merged after the timed phase.
type clientRec struct {
	samples  []float64
	index    []int64 // completion index of each sample
	attempt  int
	failed   int
	shed     int
	hits     int
	maps     int
	firstHit map[int][]byte // first body of each hit key
	firstMap []byte
	misses   []reply
	err      error // first output mismatch
}

// serve drives server.New (default config, cache on) behind a loopback
// httptest listener with two closed-loop clients. One op is one request.
type serve struct {
	cfg  config
	keys []warmKey
	srv  *server.Server
	ts   *httptest.Server
	tr   *http.Transport
	cl   *http.Client
	warm []reply // pre-warm responses
	recs []*clientRec
}

func newServe(cfg config) *serve {
	return &serve{cfg: cfg, keys: warmKeys()}
}

// setup starts a fresh server and pre-warms every key at warmScale
// through HTTP, two clients at a time.
func (s *serve) setup(ctx context.Context) error {
	srv, err := server.New(server.Config{DataDir: filepath.Join(s.cfg.scratch, "serve")})
	if err != nil {
		return err
	}
	s.srv = srv
	s.ts = httptest.NewServer(srv.Handler())
	s.tr = &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	s.cl = &http.Client{Transport: s.tr}
	s.warm = make([]reply, len(s.keys))
	bufs := make([]bytes.Buffer, len(s.keys))
	return parallel(len(s.keys), func(i int) error {
		status, hdr, err := s.post(ctx, "/v1/evaluate", evaluateBody(s.keys[i], warmScale), &bufs[i])
		if err != nil {
			return err
		}
		if status != http.StatusOK || hdr != "miss" {
			return fmt.Errorf("pre-warm %v: status %d, cache %q", s.keys[i], status, hdr)
		}
		s.warm[i] = reply{evalKey: evalKey{s.keys[i], warmScale}, body: bufs[i].Bytes()}
		return nil
	})
}

// post sends one request and reads the whole reply into buf.
func (s *serve) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cl.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Ftspm-Cache"), nil
}

// serveBlock is how many consecutive completed requests make one window
// of serve's timed phase (tinyServeBlock at the tests' small size).
// Each window's tail is then its p99: the highest percentile with ten
// samples beyond it.
const (
	serveBlock     = 1000
	tinyServeBlock = 100
)

// mark is the wall clock and process CPU time at a window boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// blockMarks records a mark each time the count of completed requests
// reaches a multiple of size.
type blockMarks struct {
	size  int64
	done  atomic.Int64
	mu    sync.Mutex
	marks []mark
}

// complete counts one completed request and returns its index in
// completion order.
func (b *blockMarks) complete() int64 {
	i := b.done.Add(1) - 1
	if k := int((i + 1) / b.size); (i+1)%b.size == 0 {
		m := mark{time.Now(), cpuTime()}
		b.mu.Lock()
		for len(b.marks) <= k {
			b.marks = append(b.marks, mark{})
		}
		b.marks[k] = m
		b.mu.Unlock()
	}
	return i
}

func (s *serve) timed(ctx context.Context, d time.Duration) (phase, error) {
	var next atomic.Int64
	s.recs = make([]*clientRec, serveClients)
	errs := make([]error, serveClients)
	blocks := &blockMarks{size: serveBlock, marks: []mark{{time.Now(), cpuTime()}}}
	if s.cfg.tiny {
		blocks.size = tinyServeBlock
	}
	deadline := blocks.marks[0].at.Add(d)
	var wg sync.WaitGroup
	for c := range s.recs {
		rec := &clientRec{firstHit: make(map[int][]byte)}
		s.recs[c] = rec
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.client(ctx, deadline, &next, blocks, rec)
		}(c)
	}
	wg.Wait()
	var ph phase
	for _, err := range errs {
		if err != nil {
			return ph, err
		}
	}

	// Window k spans completions [k*size, (k+1)*size), between marks k
	// and k+1.
	n := len(blocks.marks) - 1
	if n < 1 {
		return ph, fmt.Errorf("%d requests completed, fewer than one window of %d", blocks.done.Load(), blocks.size)
	}
	ph.windows = make([]window, n)
	lat := make([][]float64, n)
	for _, rec := range s.recs {
		ph.samples = append(ph.samples, rec.samples...)
		ph.attempted += rec.attempt
		ph.failed += rec.failed
		for i, idx := range rec.index {
			if k := int(idx / blocks.size); k < n {
				lat[k] = append(lat[k], rec.samples[i])
			}
		}
		for _, m := range rec.misses {
			if k := int(m.index / blocks.size); k < n {
				run, err := decodeRun(m.body)
				if err != nil {
					return ph, err
				}
				ph.windows[k].accesses += run.Accesses
			}
		}
	}
	for k := range ph.windows {
		w := &ph.windows[k]
		w.units = int(blocks.size)
		w.wall = blocks.marks[k+1].at.Sub(blocks.marks[k].at)
		w.cpu = blocks.marks[k+1].cpu - blocks.marks[k].cpu
		var err error
		if w.tail, _, _, err = tailOf(lat[k]); err != nil {
			return ph, fmt.Errorf("window %d: %w", k, err)
		}
	}
	return ph, nil
}

// client is one closed-loop caller: it sends request next, waits for
// the whole reply, and records its latency and class check.
func (s *serve) client(ctx context.Context, deadline time.Time, next *atomic.Int64, blocks *blockMarks, rec *clientRec) error {
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		i := next.Add(1) - 1
		if i >= serveMaxRequests {
			return nil
		}
		req := mixRequest(s.cfg.seed, i, len(s.keys))
		path, body := "/v1/map", mapBody
		switch req.class {
		case classHit:
			path, body = "/v1/evaluate", evaluateBody(s.keys[req.key], warmScale)
		case classMiss:
			path, body = "/v1/evaluate", evaluateBody(s.keys[req.key], req.scale)
		}
		t0 := time.Now()
		status, hdr, err := s.post(ctx, path, body, &buf)
		el := time.Since(t0)
		if err != nil {
			return err
		}
		rec.attempt++
		if status != http.StatusOK {
			rec.failed++
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				rec.shed++
			}
			continue
		}
		idx := blocks.complete()
		rec.samples = append(rec.samples, ms(el))
		rec.index = append(rec.index, idx)
		switch req.class {
		case classHit:
			rec.hits++
			if hdr != "hit" {
				rec.fail(fmt.Errorf("request %d (hit %v): X-Ftspm-Cache %q", i, s.keys[req.key], hdr))
			}
			if first, ok := rec.firstHit[req.key]; !ok {
				rec.firstHit[req.key] = bytes.Clone(buf.Bytes())
			} else if !sameBody(first, buf.Bytes()) {
				rec.fail(fmt.Errorf("request %d (hit %v): body differs from an earlier hit", i, s.keys[req.key]))
			}
		case classMiss:
			if hdr != "miss" {
				rec.fail(fmt.Errorf("request %d (miss %v): X-Ftspm-Cache %q", i, s.keys[req.key], hdr))
			}
			rec.misses = append(rec.misses, reply{evalKey{s.keys[req.key], req.scale}, bytes.Clone(buf.Bytes()), idx})
		case classMap:
			rec.maps++
			if rec.firstMap == nil {
				rec.firstMap = bytes.Clone(buf.Bytes())
			} else if !sameBody(rec.firstMap, buf.Bytes()) {
				rec.fail(fmt.Errorf("request %d (map): body differs from an earlier map", i))
			}
		}
	}
	return nil
}

func (r *clientRec) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// sameBody compares two replies up to their elapsed_ms field, the only
// part allowed to differ between identical requests.
func sameBody(a, b []byte) bool {
	const tag = `"elapsed_ms"`
	ia, ib := bytes.LastIndex(a, []byte(tag)), bytes.LastIndex(b, []byte(tag))
	return ia >= 0 && ia == ib && bytes.Equal(a[:ia], b[:ib])
}

func decodeRun(body []byte) (experiments.RunSummary, error) {
	var resp server.EvaluateResponse
	err := json.Unmarshal(body, &resp)
	return resp.Run, err
}

// check compares every distinct reply with a direct call, and the
// server's cache counters with the counts the mix fixes by
// construction.
func (s *serve) check(ctx context.Context) error {
	var hits, maps, misses, failed, shed int
	var replies []reply // pre-warm, first hit per key per client, misses
	replies = append(replies, s.warm...)
	for _, rec := range s.recs {
		if rec.err != nil {
			return rec.err
		}
		hits += rec.hits
		maps += rec.maps
		misses += len(rec.misses)
		failed += rec.failed
		shed += rec.shed
		replies = append(replies, rec.misses...)
		for k, body := range rec.firstHit {
			replies = append(replies, reply{evalKey: evalKey{s.keys[k], warmScale}, body: body})
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed, %d of them shed with 429/503", failed, shed)
	}

	// One direct call per distinct (key, scale): the warm set, then
	// every miss.
	warm := make(map[warmKey]experiments.Outcome, len(s.keys))
	var jobs []evalKey
	for _, k := range s.keys {
		jobs = append(jobs, evalKey{k, warmScale})
	}
	for _, rec := range s.recs {
		for _, m := range rec.misses {
			jobs = append(jobs, m.evalKey)
		}
	}
	outs := make([]experiments.Outcome, len(jobs))
	if err := parallel(len(jobs), func(i int) (err error) {
		outs[i], err = experiments.EvaluateByNameContext(ctx, jobs[i].key.workload, jobs[i].key.structure,
			experiments.Options{Scale: jobs[i].scale})
		return err
	}); err != nil {
		return err
	}
	direct := make(map[evalKey]experiments.Outcome, len(jobs))
	for i, j := range jobs {
		direct[j] = outs[i]
		if j.scale == warmScale {
			warm[j.key] = outs[i]
		}
	}
	for _, m := range replies {
		var got struct{ Run json.RawMessage }
		if err := json.Unmarshal(m.body, &got); err != nil {
			return err
		}
		want, err := json.Marshal(experiments.SummarizeOutcome(direct[m.evalKey]))
		if err != nil {
			return err
		}
		if !equalJSON(got.Run, want) {
			return fmt.Errorf("/v1/evaluate %v at scale %v: run differs from a direct call", m.key, m.scale)
		}
	}
	for _, rec := range s.recs {
		if rec.firstMap != nil {
			if err := checkMap(rec.firstMap, warm); err != nil {
				return err
			}
		}
	}

	st, err := s.health(ctx)
	if err != nil {
		return err
	}
	wantHits := uint64(hits + maps*len(workloads.Names())*len(core.Structures()))
	wantMisses := uint64(len(s.keys) + misses)
	if st.Hits != wantHits || st.Misses != wantMisses || st.Bypasses != 0 || st.Evictions != 0 {
		return fmt.Errorf("cache counters hits=%d misses=%d bypasses=%d evictions=%d, want %d, %d, 0, 0",
			st.Hits, st.Misses, st.Bypasses, st.Evictions, wantHits, wantMisses)
	}
	return nil
}

// parallel runs f(0..n-1) on serveClients goroutines, each taking the
// next index as it finishes one, and returns the first error.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for errs[c] == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[c] = f(i)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkMap compares a /v1/map reply with the entries the direct calls
// give, and confirms the whole batch was answered from the cache.
func checkMap(body []byte, warm map[warmKey]experiments.Outcome) error {
	var got struct {
		Entries     json.RawMessage `json:"entries"`
		CacheHits   int             `json:"cache_hits"`
		CacheMisses int             `json:"cache_misses"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	var entries []server.MapEntry
	for _, name := range workloads.Names() {
		for _, st := range core.Structures() {
			out := warm[warmKey{name, st}]
			entries = append(entries, server.MapEntry{
				Workload: name, Structure: st.String(),
				Mapping: out.Mapping, Run: experiments.SummarizeOutcome(out),
			})
		}
	}
	want, err := json.Marshal(entries)
	if err != nil {
		return err
	}
	if n := len(entries); got.CacheHits != n || got.CacheMisses != 0 {
		return fmt.Errorf("/v1/map: %d hits, %d misses, want %d, 0", got.CacheHits, got.CacheMisses, n)
	}
	if !equalJSON(got.Entries, want) {
		return fmt.Errorf("/v1/map: entries differ from direct calls")
	}
	return nil
}

func equalJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// health reads the server's result-cache counters from /healthz.
func (s *serve) health(ctx context.Context) (resultcache.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/healthz", nil)
	if err != nil {
		return resultcache.Stats{}, err
	}
	resp, err := s.cl.Do(req)
	if err != nil {
		return resultcache.Stats{}, err
	}
	defer resp.Body.Close()
	var h server.HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return resultcache.Stats{}, err
	}
	if h.Cache == nil {
		return resultcache.Stats{}, fmt.Errorf("/healthz reports no result cache")
	}
	return *h.Cache, nil
}

func (s *serve) close() {
	if s.ts != nil {
		s.ts.Close()
		s.tr.CloseIdleConnections()
		s.ts, s.tr = nil, nil
	}
}
