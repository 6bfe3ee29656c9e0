package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric/chaostest"
	"ftspm/internal/fabric/wire"
	"ftspm/internal/server"
)

// setupsDuring returns how many set-ups run does.
func setupsDuring(run func()) uint64 {
	before := experiments.SetupCount()
	run()
	return experiments.SetupCount() - before
}

// A 2-worker fabric sweep with the default config places whole
// workloads, so each worker's per-request source traces and profiles
// every workload it receives exactly once: 12 set-ups for the 12×3
// suite, as on a single node, and the same bytes.
func TestFabricSweepSetsUpEachWorkloadOnce(t *testing.T) {
	opts := experiments.Options{Scale: 0.1}
	var want []byte
	if n := setupsDuring(func() { want = sweepGolden(t, opts) }); n != 12 {
		t.Fatalf("single-node sweep did %d set-ups, want 12", n)
	}
	w1, w2 := chaostest.New(t), chaostest.New(t)
	n := setupsDuring(func() {
		runSweepBeforeDeadline(t, Config{Workers: []string{w1.URL(), w2.URL()}, Logf: t.Logf}, opts, want)
	})
	if n != 12 {
		t.Fatalf("2-worker fabric sweep did %d set-ups, want 12 (one per workload)", n)
	}
}

// recordingWorker is a real ftspmd handler that records the job IDs of
// every chunk it accepts.
type recordingWorker struct {
	mu     sync.Mutex
	chunks [][]string
}

// statusWriter calls onOK when the handler answers 200, before the
// status reaches the client, and keeps the stream flushable.
type statusWriter struct {
	http.ResponseWriter
	onOK func()
}

func (s *statusWriter) WriteHeader(code int) {
	if code == http.StatusOK {
		s.onOK()
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func newRecordingWorker(t *testing.T, rec *recordingWorker) string {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/fabric" {
			inner.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		// The chunk is recorded as it is accepted: the coordinator can
		// read the last result line and finish the campaign before the
		// handler returns.
		sw := &statusWriter{ResponseWriter: w, onOK: func() {
			var req wire.Request
			if json.Unmarshal(body, &req) == nil {
				rec.mu.Lock()
				rec.chunks = append(rec.chunks, req.JobIDs)
				rec.mu.Unlock()
			}
		}}
		inner.ServeHTTP(sw, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// A soak's costly set-up, its trace and profile, is per source, so the
// whole soak is one set-up group and its chunks fill to the cap as
// they did before grouping: cutting them at structure boundaries would
// add placements, each repeating that set-up. Each accepted chunk sets
// up once for the trace and profile and once per structure in it, and
// the merged reports still match a single-node run.
func TestFabricSoakChunksFillToCap(t *testing.T) {
	base := experiments.SoakOptions{Trials: 8, Scale: 0.02, StrikesPerAccess: 1e-3, Seed: 5}
	structures := core.Structures()
	golden, gst, err := experiments.RunSoakCampaign(context.Background(), base, structures, experiments.CampaignConfig{})
	if err != nil || gst.Incomplete || gst.Failed != 0 {
		t.Fatalf("golden soak: %v %+v", err, gst)
	}
	src, err := experiments.SoakSource(base, structures)
	if err != nil {
		t.Fatal(err)
	}

	rec := &recordingWorker{}
	cfg := Config{
		Workers: []string{newRecordingWorker(t, rec), newRecordingWorker(t, rec)},
		Logf:    t.Logf,
	}
	var reps []*experiments.SoakReport
	var st *experiments.CampaignStatus
	n := setupsDuring(func() {
		reps, st, err = experiments.RunSoakOn(context.Background(), base, structures, cfg.Run)
	})
	if err != nil || st.Incomplete || st.Failed != 0 {
		t.Fatalf("fabric soak: %v %+v", err, st)
	}
	if got, want := mustMarshal(t, reps), mustMarshal(t, golden); !bytes.Equal(got, want) {
		t.Fatalf("fabric soak diverged from single node:\n got %s\nwant %s", got, want)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	max := chunkSize(cfg, len(src.IDs))
	if want := (len(src.IDs) + max - 1) / max; len(rec.chunks) != want {
		t.Errorf("placed %d chunks, want %d: %d jobs filled to the cap of %d", len(rec.chunks), want, len(src.IDs), max)
	}
	placed := make(map[string]bool, len(src.IDs))
	var want uint64
	for _, chunk := range rec.chunks {
		if len(chunk) > max {
			t.Errorf("chunk of %d jobs exceeds the cap of %d", len(chunk), max)
		}
		keys := map[string]bool{}
		for _, id := range chunk {
			if placed[id] {
				t.Errorf("job %s placed twice", id)
			}
			placed[id] = true
			keys[strings.SplitN(id, "/", 3)[1]] = true
		}
		want += 1 + uint64(len(keys))
	}
	if len(placed) != len(src.IDs) {
		t.Fatalf("placed %d distinct jobs, want %d", len(placed), len(src.IDs))
	}
	if n != want {
		t.Errorf("fabric soak did %d set-ups, want %d: one trace and profile per chunk plus one mapping per structure in it", n, want)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
