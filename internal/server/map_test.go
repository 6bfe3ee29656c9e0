package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
)

// /v1/map composes per-(workload, structure) cache entries: a repeated
// batch is answered entirely from the cache with byte-identical
// entries, and /v1/evaluate shares the same key space.
func TestMapEndpointComposesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 0.02})

	body := `{"workloads":["sha","fft"],"structures":["ftspm","sram"]}`
	resp1, data1 := postJSON(t, ts.URL+"/v1/map", body)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold map: %d %s", resp1.StatusCode, data1)
	}
	var cold MapResponse
	if err := json.Unmarshal(data1, &cold); err != nil {
		t.Fatal(err)
	}
	if len(cold.Entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(cold.Entries))
	}
	if cold.CacheMisses != 4 || cold.CacheHits != 0 {
		t.Fatalf("cold: hits=%d misses=%d, want 0/4", cold.CacheHits, cold.CacheMisses)
	}
	if len(cold.Entries[0].Mapping.Placement) == 0 {
		t.Fatal("entry carries no placement")
	}

	// The second batch decodes each entry on its first hit; the third
	// is served from the decoded memos. Both match the cold entries.
	ce, _ := json.Marshal(cold.Entries)
	for _, batch := range []string{"decoding", "memoized"} {
		resp, data := postJSON(t, ts.URL+"/v1/map", body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s map: %d %s", batch, resp.StatusCode, data)
		}
		var warm MapResponse
		if err := json.Unmarshal(data, &warm); err != nil {
			t.Fatal(err)
		}
		if warm.CacheHits != 4 || warm.CacheMisses != 0 {
			t.Fatalf("%s: hits=%d misses=%d, want 4/0", batch, warm.CacheHits, warm.CacheMisses)
		}
		if we, _ := json.Marshal(warm.Entries); !bytes.Equal(ce, we) {
			t.Fatalf("%s map entries diverge from cold run", batch)
		}
	}

	// /v1/evaluate hits the entry the map batches populated, flagged in
	// the header with an unchanged body shape; a repeat is byte-for-byte
	// the same body, and its run is the cold map entry's run.
	var evalBodies [2][]byte
	for i := range evalBodies {
		er, edata := postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"sha","structure":"ftspm","scale":0.02}`)
		if er.StatusCode != 200 {
			t.Fatalf("evaluate: %d %s", er.StatusCode, edata)
		}
		if got := er.Header.Get("X-Ftspm-Cache"); got != "hit" {
			t.Fatalf("X-Ftspm-Cache = %q, want hit", got)
		}
		evalBodies[i] = edata
	}
	if !bytes.Equal(evalBodies[0], evalBodies[1]) {
		t.Fatalf("repeat evaluate hit diverges:\n%s\n%s", evalBodies[0], evalBodies[1])
	}
	var ev struct {
		Run json.RawMessage `json:"run"`
	}
	if err := json.Unmarshal(evalBodies[0], &ev); err != nil || len(ev.Run) == 0 {
		t.Fatalf("evaluate body: %v %s", err, evalBodies[0])
	}
	var evRun experiments.RunSummary
	if err := json.Unmarshal(ev.Run, &evRun); err != nil {
		t.Fatal(err)
	}
	eb, _ := json.Marshal(evRun)
	cb, _ := json.Marshal(cold.Entries[0].Run)
	if cold.Entries[0].Workload != "sha" || cold.Entries[0].Structure != core.StructFTSPM.String() || !bytes.Equal(eb, cb) {
		t.Fatalf("evaluate hit run diverges from the cold map entry:\n%s\n%s", eb, cb)
	}

	// /healthz surfaces the counters.
	var hs HealthStatus
	getJSON(t, ts.URL+"/healthz", &hs)
	if hs.Cache == nil || hs.Cache.Hits == 0 || hs.Cache.Misses == 0 {
		t.Fatalf("healthz cache stats = %+v, want hits and misses", hs.Cache)
	}

	// Unknown structure and workload are client errors.
	if r, _ := postJSON(t, ts.URL+"/v1/map", `{"structures":["bogus"]}`); r.StatusCode != 400 {
		t.Fatalf("bogus structure: %d, want 400", r.StatusCode)
	}
	if r, _ := postJSON(t, ts.URL+"/v1/map", `{"workloads":["nope"]}`); r.StatusCode != 400 {
		t.Fatalf("bogus workload: %d, want 400", r.StatusCode)
	}
}

// With NoCache everything still works — recomputed every time, miss
// headers, no /healthz stats block.
func TestMapEndpointNoCache(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 0.02, NoCache: true})
	body := `{"workloads":["sha"],"structures":["ftspm"]}`
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/map", body)
		if resp.StatusCode != 200 {
			t.Fatalf("map: %d %s", resp.StatusCode, data)
		}
		var mr MapResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.CacheHits != 0 || mr.CacheMisses != 1 {
			t.Fatalf("run %d: hits=%d misses=%d, want 0/1", i, mr.CacheHits, mr.CacheMisses)
		}
	}
	er, _ := postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"sha","structure":"ftspm","scale":0.02}`)
	if got := er.Header.Get("X-Ftspm-Cache"); got != "miss" {
		t.Fatalf("X-Ftspm-Cache = %q, want miss", got)
	}
	var hs HealthStatus
	getJSON(t, ts.URL+"/healthz", &hs)
	if hs.Cache != nil {
		t.Fatalf("healthz cache stats present with NoCache: %+v", hs.Cache)
	}
}

// A result too large for the memory tier's byte bound is not kept, and
// with no disk tier it is lost: /healthz counts every such drop rather
// than letting the repeat miss go unexplained.
func TestHealthzCountsOversizeResults(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultScale: 0.02, CacheBytes: 64})
	for i := 0; i < 2; i++ {
		er, edata := postJSON(t, ts.URL+"/v1/evaluate", `{"workload":"sha","structure":"ftspm"}`)
		if er.StatusCode != 200 {
			t.Fatalf("evaluate: %d %s", er.StatusCode, edata)
		}
		if got := er.Header.Get("X-Ftspm-Cache"); got != "miss" {
			t.Fatalf("evaluate %d: X-Ftspm-Cache = %q, want miss", i, got)
		}
	}
	var hs HealthStatus
	getJSON(t, ts.URL+"/healthz", &hs)
	if hs.Cache == nil || hs.Cache.Oversize != 2 || hs.Cache.Entries != 0 || hs.Cache.Misses != 2 {
		t.Fatalf("healthz cache stats = %+v, want oversize=2 entries=0 misses=2", hs.Cache)
	}
}
