package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run. It is separate from the timed runs: spans are
// recorded in memory around the calls the benchmark makes into each
// layer's public functions, and written out when the run ends. Each
// workload's traced pass also times one untraced op of the same work,
// so the tracing overhead is reported next to the layer numbers.

// span is one timed call into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: none
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       string `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans in memory. It is safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, workload, op string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, Op: op, StartNS: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// timeSpan runs f inside a span.
func (t *tracer) timeSpan(name, workload, op string, parent int, f func() error) error {
	id := t.begin(name, workload, op, parent)
	err := f()
	t.end(id)
	return err
}

// named returns a copy of every span of workload named name.
func (t *tracer) named(workload, name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in ms of every span of workload
// named name.
func (t *tracer) durations(workload, name string) []float64 {
	var out []float64
	for _, s := range t.named(workload, name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerSummary is one span name's totals in the trace file.
type layerSummary struct {
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
	MedianMS float64 `json:"median_ms"`
}

func (t *tracer) summary() map[string]layerSummary {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	durs := make(map[string][]float64)
	out := make(map[string]layerSummary)
	for _, s := range t.spans {
		key := s.Workload + "/" + s.Name
		l := out[key]
		l.Count++
		l.TotalMS += ms(s.dur())
		l.SelfMS += ms(self[s.ID])
		out[key] = l
		durs[key] = append(durs[key], ms(s.dur()))
	}
	for k, l := range out {
		l.MedianMS = median(durs[k])
		out[k] = l
	}
	return out
}

// selfTotal sums the self time of every span of workload named name.
func (t *tracer) selfTotal(workload, name string) time.Duration {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name {
			total += self[s.ID]
		}
	}
	return total
}

// traceFile is what the traced run writes under the benchmark's
// directory.
type traceFile struct {
	Env      env                     `json:"env"`
	Workload string                  `json:"workload"`
	Seed     int64                   `json:"seed"`
	Metrics  map[string]metric       `json:"metrics"`
	Notes    map[string]any          `json:"notes"`
	Layers   map[string]layerSummary `json:"layers"`
	Spans    []span                  `json:"spans"`
}

// tracePass is one workload's traced pass: it records spans into tr
// and adds its per-layer metrics and notes.
type tracePass func(ctx context.Context, cfg config, tr *tracer, m map[string]metric, notes map[string]any) error

// runTraced makes one traced pass over every workload, so every
// per-layer metric is measured whichever workload is named; the trace
// file is named after it.
func runTraced(ctx context.Context, cfg config, name, outDir string) (*result, error) {
	if _, err := newWorkload(name, cfg); err != nil {
		return nil, err
	}
	tr := newTracer()
	m := make(map[string]metric)
	notes := make(map[string]any)
	passes := []struct {
		name string
		run  tracePass
	}{
		{"sweep", traceSweep},
		{"soak", traceSoak},
		{"serve", traceServe},
		{"fabric", traceFabric},
	}
	for _, p := range passes {
		if err := p.run(ctx, cfg, tr, m, notes); err != nil {
			return nil, fmt.Errorf("traced %s: %w", p.name, err)
		}
	}

	tf := traceFile{
		Env: describeEnv(cfg.root), Workload: name, Seed: cfg.seed,
		Metrics: m, Notes: notes, Layers: tr.summary(), Spans: tr.spans,
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans and per-layer numbers written to", path)
	return &result{Correct: true, Attempted: len(passes), Failed: 0, Metrics: m}, nil
}

// percentile returns the p-th percentile (0..100) of xs by the nearest
// rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p/100*float64(len(s)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
