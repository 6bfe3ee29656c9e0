package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// traceFabric times the single-node campaign, one untraced fabric
// campaign, and one traced fabric campaign whose HTTP calls are spans
// recorded by a transport passed through fabric.Config.HTTPClient.
func traceFabric(ctx context.Context, cfg config, tr *tracer, m map[string]metric, notes map[string]any) error {
	f := newFabric(cfg)
	runtime.GC()
	if err := f.setup(ctx); err != nil { // single-node reference + one campaign
		return err
	}
	runtime.GC()
	_, _, untraced, err := f.op(ctx, 0, nil)
	if err != nil {
		return err
	}
	rt := &spanTransport{base: http.DefaultTransport, tr: tr}
	rt.parent = tr.begin("fabric.campaign", "fabric", "traced", 0)
	_, _, traced, err := f.op(ctx, 1, &http.Client{Transport: rt})
	tr.end(rt.parent)
	if err != nil {
		return err
	}
	if err := f.check(ctx); err != nil {
		return err
	}

	var lastPlacement int64
	for _, s := range tr.named("fabric", "fabric.placement") {
		lastPlacement = max(lastPlacement, s.EndNS)
	}
	tailIdle := time.Duration(tr.named("fabric", "fabric.campaign")[0].EndNS - lastPlacement)
	placements := tr.durations("fabric", "fabric.placement")
	probes := tr.durations("fabric", "fabric.probe")
	gap := traced - f.baseline

	m["fabric.placements"] = metric{float64(len(placements)), "count"}
	m["fabric.placement_ms"] = metric{median(placements), "ms"}
	m["fabric.probes"] = metric{float64(len(probes)), "count"}
	m["fabric.probe_ms"] = metric{median(probes), "ms"}
	m["fabric.tail_idle_ms"] = metric{ms(tailIdle), "ms"}
	m["fabric.overhead_ratio"] = metric{traced.Seconds() / f.baseline.Seconds(), "ratio"}
	m["tracing.fabric_overhead"] = metric{traced.Seconds()/untraced.Seconds() - 1, "ratio"}
	notes["fabric"] = map[string]any{
		"single_node_ms":         ms(f.baseline),
		"untraced_campaign_ms":   ms(untraced),
		"traced_campaign_ms":     ms(traced),
		"gap_ms":                 ms(gap),
		"tail_idle_share_of_gap": ms(tailIdle) / ms(gap),
		"attribution":            "gap = fabric campaign - single-node campaign; tail_idle is the part after the last placement ended",
	}
	return nil
}

// spanTransport records every coordinator request as a span: POST
// /v1/fabric as a placement, GET /healthz as a probe. A span ends when
// the response body is fully read or closed.
type spanTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "fabric.http"
	switch req.URL.Path {
	case "/v1/fabric":
		name = "fabric.placement"
	case "/healthz":
		name = "fabric.probe"
	}
	id := t.tr.begin(name, "fabric", req.URL.Host, t.parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

// spanBody ends its span once, at EOF or Close.
type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}
