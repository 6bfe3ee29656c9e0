package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// repoRoot is the repository holding the goldens.
const repoRoot = ".."

// benchMetrics reads the metric names and units BENCHMARK.json declares.
func benchMetrics(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &list); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func tinyConfig(t *testing.T, root string) config {
	return config{root: root, scratch: t.TempDir(), seed: 3, tiny: true}
}

func assertMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		got, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if got.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, got.Unit, unit)
		}
	}
}

// TestTinyWorkloadsPrintEveryMetric runs every workload at its small
// size and checks that each end-to-end metric prints with its unit.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	want := benchMetrics(t, "end_to_end")
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runTimed(context.Background(), tinyConfig(t, repoRoot), name, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, res, want)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRunPrintsEveryLayerMetric makes the traced run at small
// sizes and checks every per-layer metric and the trace file.
func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("traces every workload")
	}
	out := t.TempDir()
	res, err := runTraced(context.Background(), tinyConfig(t, repoRoot), "serve", out)
	if err != nil {
		t.Fatal(err)
	}
	assertMetrics(t, res, benchMetrics(t, "per_layer"))
	if _, err := os.Stat(filepath.Join(out, "trace-serve-seed3.json")); err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["sim.accesses"].Value; v != 3412761 {
		t.Errorf("sim.accesses = %v, want the 3412761 of the scale-0.25 sweep", v)
	}
	if v := res.Metrics["resultcache.evictions"].Value; v != 0 {
		t.Errorf("resultcache.evictions = %v, want 0", v)
	}
}

// alteredRoot copies the goldens into a fresh root, changing the first
// occurrence of old in the file at rel.
func alteredRoot(t *testing.T, rel, old, repl string) string {
	t.Helper()
	root := t.TempDir()
	for _, f := range []string{"results/summary.json", "BENCH_soak.json"} {
		b, err := os.ReadFile(filepath.Join(repoRoot, f))
		if err != nil {
			t.Fatal(err)
		}
		if f == rel {
			if !bytes.Contains(b, []byte(old)) {
				t.Fatalf("%s holds no %q", f, old)
			}
			b = bytes.Replace(b, []byte(old), []byte(repl), 1)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestSweepCheckFailsOnAlteredGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep")
	}
	ctx := context.Background()
	s := newSweep(tinyConfig(t, repoRoot))
	if err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.check(ctx); err != nil {
		t.Fatalf("check against the committed golden: %v", err)
	}
	s.golden = filepath.Join(alteredRoot(t, "results/summary.json", `"cycles": 728802`, `"cycles": 728803`), "results", "summary.json")
	if err := s.check(ctx); err == nil {
		t.Fatal("check passed against an altered golden")
	}
}

func TestSoakCheckFailsOnAlteredGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs soak campaigns")
	}
	ctx := context.Background()
	for _, alt := range []struct{ old, repl string }{
		{`"strikes": 6445`, `"strikes": 6446`}, // reports
		{`"storm_reports": [`, `"storm_reports": [{"workload": "casestudy"},`},
	} {
		root := alteredRoot(t, "BENCH_soak.json", alt.old, alt.repl)
		if err := checkSoakGolden(ctx, filepath.Join(root, "BENCH_soak.json")); err == nil {
			t.Errorf("check passed with %q altered", alt.old)
		}
	}
}

func TestServeCheckFailsOnAlteredReply(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve mix")
	}
	ctx := context.Background()
	s := newServe(tinyConfig(t, repoRoot))
	defer s.close()
	if err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.timed(ctx, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.check(ctx); err != nil {
		t.Fatalf("check of the served replies: %v", err)
	}
	body := s.warm[0].body
	if !bytes.Contains(body, []byte(`"accesses": `)) {
		t.Fatalf("reply holds no accesses field: %s", body)
	}
	s.warm[0].body = bytes.Replace(body, []byte(`"accesses": `), []byte(`"accesses": 9`), 1)
	if err := s.check(ctx); err == nil {
		t.Fatal("check passed with an altered reply")
	}
}

func TestFabricCheckFailsOnAlteredReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fabric campaigns")
	}
	ctx := context.Background()
	f := newFabric(tinyConfig(t, repoRoot))
	if err := f.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.check(ctx); err != nil {
		t.Fatalf("fabric vs single node: %v", err)
	}
	f.want = bytes.Replace(f.want, []byte(`"cycles": `), []byte(`"cycles": 1`), 1)
	if err := f.check(ctx); err == nil {
		t.Fatal("check passed against an altered single-node reference")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 0}
	v, pct, beyond, err := tailOf(xs)
	if err != nil || v != 0 || beyond != 10 {
		t.Fatalf("tailOf(11 samples) = %v, p%v, %d beyond, %v", v, pct, beyond, err)
	}
	xs = append(xs, 11, 12)
	if v, _, beyond, _ := tailOf(xs); v != 2 || beyond != 10 {
		t.Fatalf("tailOf(13 samples) = %v with %d beyond, want 2 with 10", v, beyond)
	}
	if _, _, _, err := tailOf(xs[:10]); err == nil {
		t.Fatal("tailOf accepted 10 samples")
	}
}

func TestMixIsSeededAndMissesNeverRepeat(t *testing.T) {
	keys := warmKeys()
	seen := make(map[float64]bool)
	for i := int64(0); i < serveMaxRequests; i += 10 {
		classes := make(map[int]int)
		for j := i; j < i+10; j++ {
			a, b := mixRequest(7, j, len(keys)), mixRequest(7, j, len(keys))
			if a != b {
				t.Fatalf("request %d differs between two calls", j)
			}
			classes[a.class]++
			if a.class == classMiss {
				if seen[a.scale] || a.scale == warmScale {
					t.Fatalf("miss scale %v repeats", a.scale)
				}
				seen[a.scale] = true
			}
		}
		if classes[classHit] != 8 || classes[classMiss] != 1 || classes[classMap] != 1 {
			t.Fatalf("requests %d-%d: classes %v, want 8 hits, 1 miss, 1 map", i, i+9, classes)
		}
	}
	if len(seen)+len(keys) > 4096 {
		t.Errorf("%d misses and %d warm keys overflow the default cache", len(seen), len(keys))
	}
	same := true
	for i := int64(0); i < 100; i++ {
		same = same && mixRequest(7, i, len(keys)) == mixRequest(8, i, len(keys))
	}
	if same {
		t.Error("the seed does not change the mix")
	}
}
