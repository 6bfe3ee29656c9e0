package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/resultcache"
	"ftspm/internal/workloads"
)

// Sizes of the traced serve pass.
const (
	traceHandlerHits = 2000 // /v1/evaluate hits straight into the handler
	traceHandlerMaps = 50   // /v1/map batches straight into the handler
	traceMixRequests = 2000 // requests of each loopback mix pass
	traceCacheRounds = 20   // rounds over the warm set in the cache calls
)

// traceServe times the server's handler with no socket, the same hits
// over loopback, the experiments and resultcache calls behind a hit,
// and fixed-length runs of the serve mix: a warm-up, then untraced and
// traced.
func traceServe(ctx context.Context, cfg config, tr *tracer, m map[string]metric, notes map[string]any) error {
	s := newServe(cfg)
	if err := s.setup(ctx); err != nil {
		return err
	}
	defer s.close()
	h := s.srv.Handler()
	var shed atomic.Int64

	// Handler alone: hits and full-suite maps into a recorder.
	serveRec := func(name string, body []byte, path, op string) error {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		tr.timeSpan(name, "serve", op, 0, func() error {
			h.ServeHTTP(rec, req)
			return nil
		})
		if rec.Code == http.StatusTooManyRequests || rec.Code == http.StatusServiceUnavailable {
			shed.Add(1)
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, rec.Code)
		}
		return nil
	}
	runtime.GC()
	for i := 0; i < traceHandlerHits; i++ {
		k := s.keys[i%len(s.keys)]
		if err := serveRec("server.evaluate_hit", evaluateBody(k, warmScale), "/v1/evaluate", k.workload); err != nil {
			return err
		}
	}
	for i := 0; i < traceHandlerMaps; i++ {
		if err := serveRec("server.map_hit", mapBody, "/v1/map", "suite"); err != nil {
			return err
		}
	}

	// The same hits over loopback, one client.
	var buf bytes.Buffer
	var loop []float64
	for i := 0; i < traceHandlerHits; i++ {
		k := s.keys[i%len(s.keys)]
		t0 := time.Now()
		status, hdr, err := s.post(ctx, "/v1/evaluate", evaluateBody(k, warmScale), &buf)
		loop = append(loop, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if status != http.StatusOK || hdr != "hit" {
			return fmt.Errorf("loopback hit %v: status %d, cache %q", k, status, hdr)
		}
	}

	// The mix: a warm-up pass, then untraced and traced passes, over
	// disjoint request indices so that every miss stays a miss.
	if _, err := s.mixPass(ctx, nil, 0, &shed); err != nil {
		return err
	}
	untraced, err := s.mixPass(ctx, nil, traceMixRequests, &shed)
	if err != nil {
		return err
	}
	traced, err := s.mixPass(ctx, tr, 2*traceMixRequests, &shed)
	if err != nil {
		return err
	}
	st, err := s.health(ctx)
	if err != nil {
		return err
	}

	if err := traceCacheCalls(ctx, tr, s.keys); err != nil {
		return err
	}

	hits := tr.durations("serve", "server.evaluate_hit")
	m["server.evaluate_hit_us"] = metric{1000 * median(hits), "us"}
	m["server.map_hit_ms"] = metric{median(tr.durations("serve", "server.map_hit")), "ms"}
	m["server.loopback_us"] = metric{1000 * (median(loop) - median(hits)), "us"}
	m["server.shed"] = metric{float64(shed.Load()), "count"}
	m["resultcache.hits"] = metric{float64(st.Hits), "count"}
	m["resultcache.misses"] = metric{float64(st.Misses), "count"}
	m["resultcache.bypasses"] = metric{float64(st.Bypasses), "count"}
	m["resultcache.evictions"] = metric{float64(st.Evictions), "count"}
	m["resultcache.key_us"] = metric{1000 * median(tr.durations("serve", "resultcache.key")), "us"}
	m["resultcache.get_us"] = metric{1000 * median(tr.durations("serve", "resultcache.get")), "us"}
	m["experiments.cached_eval_us"] = metric{1000 * median(tr.durations("serve", "experiments.cached_eval")), "us"}
	m["tracing.serve_overhead"] = metric{traced.Seconds()/untraced.Seconds() - 1, "ratio"}
	notes["serve"] = map[string]any{
		"loopback_hit_ms":     median(loop),
		"mix_requests":        traceMixRequests,
		"mix_untraced_ms":     ms(untraced),
		"mix_traced_ms":       ms(traced),
		"warm_map_hit_ms":     median(tr.durations("serve", "server.map_hit")),
		"warm_map_decodes":    len(workloads.Names()) * len(core.Structures()),
		"cache_counts_source": "/healthz after the pre-warm, the handler and loopback hits, and the three mix passes",
	}
	return nil
}

// mixPass sends requests first..first+traceMixRequests-1 of the mix
// with two closed-loop clients and returns the wall time. With a
// tracer, every request is a span.
func (s *serve) mixPass(ctx context.Context, tr *tracer, first int, shed *atomic.Int64) (time.Duration, error) {
	var next atomic.Int64
	next.Store(int64(first))
	end := int64(first + traceMixRequests)
	t0 := time.Now()
	err := parallel(serveClients, func(int) error {
		var buf bytes.Buffer
		for {
			i := next.Add(1) - 1
			if i >= end {
				return nil
			}
			req := mixRequest(s.cfg.seed, i, len(s.keys))
			path, body, name := "/v1/map", mapBody, "serve.map"
			switch req.class {
			case classHit:
				path, body, name = "/v1/evaluate", evaluateBody(s.keys[req.key], warmScale), "serve.hit"
			case classMiss:
				path, body, name = "/v1/evaluate", evaluateBody(s.keys[req.key], req.scale), "serve.miss"
			}
			var id int
			if tr != nil {
				id = tr.begin(name, "serve", fmt.Sprint(i), 0)
			}
			status, _, err := s.post(ctx, path, body, &buf)
			if tr != nil {
				tr.end(id)
			}
			if err != nil {
				return err
			}
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				shed.Add(1)
			} else if status != http.StatusOK {
				return fmt.Errorf("%s: status %d", path, status)
			}
		}
	})
	return time.Since(t0), err
}

// traceCacheCalls times the calls behind a hit: experiments'
// EvaluateCachedContext on a warm cache, and resultcache's NewKey, Get
// on the same outcomes (Put is timed in the traced sweep).
func traceCacheCalls(ctx context.Context, tr *tracer, keys []warmKey) error {
	cache, err := resultcache.Open(resultcache.Config{})
	if err != nil {
		return err
	}
	opts := experiments.Options{Scale: warmScale}
	blobs := make([][]byte, len(keys))
	if err := parallel(len(keys), func(i int) error {
		out, _, err := experiments.EvaluateCachedContext(ctx, cache, keys[i].workload, keys[i].structure, opts)
		if err != nil {
			return err
		}
		blobs[i], err = json.Marshal(out)
		return err
	}); err != nil {
		return err
	}
	runtime.GC()
	own, err := resultcache.Open(resultcache.Config{})
	if err != nil {
		return err
	}
	for r := 0; r < traceCacheRounds; r++ {
		for i, k := range keys {
			op := fmt.Sprintf("%s/%v", k.workload, k.structure)
			if err := tr.timeSpan("experiments.cached_eval", "serve", op, 0, func() error {
				_, hit, err := experiments.EvaluateCachedContext(ctx, cache, k.workload, k.structure, opts)
				if err == nil && !hit {
					err = fmt.Errorf("cached evaluate of %s missed", op)
				}
				return err
			}); err != nil {
				return err
			}
			var key resultcache.Key
			if err := tr.timeSpan("resultcache.key", "serve", op, 0, func() (err error) {
				key, err = resultcache.NewKey("perfbench/evaluate", struct {
					Workload  string  `json:"workload"`
					Structure string  `json:"structure"`
					Scale     float64 `json:"scale"`
					Round     int     `json:"round"`
				}{k.workload, k.structure.String(), warmScale, r}, struct {
					Model string `json:"model"`
				}{"analytic-avf"})
				return err
			}); err != nil {
				return err
			}
			own.Put(key, blobs[i])
			if err := tr.timeSpan("resultcache.get", "serve", op, 0, func() error {
				if _, ok := own.Get(key); !ok {
					return fmt.Errorf("resultcache get of %s missed", op)
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
