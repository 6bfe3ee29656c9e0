package workloads

import (
	"reflect"
	"sync"
	"testing"

	"ftspm/internal/trace"
)

// TestTraceStreamMatchesSlice pins the tentpole determinism contract:
// the streaming generator must emit the byte-identical event sequence
// of the materialized slice path, for every workload in the repo.
func TestTraceStreamMatchesSlice(t *testing.T) {
	for _, w := range All() {
		slice := trace.Collect(w.Trace(0.05), 0)
		stream := trace.Collect(w.TraceStream(0.05), 0)
		if len(slice) != len(stream) {
			t.Fatalf("%s: slice %d events, stream %d", w.Name, len(slice), len(stream))
		}
		if !reflect.DeepEqual(slice, stream) {
			t.Fatalf("%s: stream diverges from slice path", w.Name)
		}
	}
}

// TestTraceStreamReplayable: rebuilding the stream replays the same
// sequence (the seeded-replay property the cache and the sweep engine
// rely on).
func TestTraceStreamReplayable(t *testing.T) {
	w := CaseStudy()
	a := trace.Collect(w.TraceStream(0.05), 0)
	b := trace.Collect(w.TraceStream(0.05), 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rebuilding the stream changed the sequence")
	}
}

// TestTraceStreamBounded checks that the pull path works incrementally:
// taking a prefix of the stream matches the prefix of the full trace.
func TestTraceStreamBounded(t *testing.T) {
	w := CaseStudy()
	full := trace.Collect(w.TraceStream(0.05), 0)
	prefix := trace.Collect(w.TraceStream(0.05), 100)
	if len(prefix) != 100 {
		t.Fatalf("prefix length %d, want 100", len(prefix))
	}
	if !reflect.DeepEqual(prefix, full[:100]) {
		t.Fatal("streamed prefix diverges from the full trace")
	}
}

func TestTraceCacheHitsAndSharing(t *testing.T) {
	w := CaseStudy()
	c := NewTraceCache(2)
	ev1 := c.Events(w, 0.05)
	ev2 := c.Events(w, 0.05)
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if &ev1[0] != &ev2[0] {
		t.Fatal("cache hit did not share the backing array")
	}
	want := trace.Collect(w.Trace(0.05), 0)
	got := trace.Collect(c.Stream(w, 0.05), 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("cached replay diverges from the generator")
	}
}

func TestTraceCacheEviction(t *testing.T) {
	w := CaseStudy()
	c := NewTraceCache(2)
	ev1 := c.Events(w, 0.01)
	c.Events(w, 0.02)
	c.Events(w, 0.03) // evicts 0.01 (LRU)
	if c.Len() != 2 {
		t.Fatalf("cache holds %d traces, want capacity 2", c.Len())
	}
	ev1b := c.Events(w, 0.01) // regenerated after eviction
	if &ev1[0] == &ev1b[0] {
		t.Fatal("evicted entry was still served from cache")
	}
	if !reflect.DeepEqual(ev1, ev1b) {
		t.Fatal("regenerated trace diverges from the original")
	}
}

// TestTraceCacheConcurrent hammers one cache from many goroutines; the
// race detector guards the locking and every caller must observe the
// reference sequence.
func TestTraceCacheConcurrent(t *testing.T) {
	w := CaseStudy()
	ref := trace.Collect(w.Trace(0.02), 0)
	c := NewTraceCache(2)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := trace.Collect(c.Stream(w, 0.02), 0)
			if !reflect.DeepEqual(ref, got) {
				errs <- "concurrent reader saw a divergent trace"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// BenchmarkTraceStream times streamed generation of every suite
// workload's trace at scale 0.25, drained in trace.BatchLen batches as
// the profiler and the simulator read it (reports ns per event).
func BenchmarkTraceStream(b *testing.B) {
	b.ReportAllocs()
	suite := Suite()
	buf := make([]trace.Event, trace.BatchLen)
	events := 0
	for i := 0; i < b.N; i++ {
		for _, w := range suite {
			s := w.TraceStream(0.25)
			for batch := trace.ReadBatch(s, buf); len(batch) > 0; batch = trace.ReadBatch(s, buf) {
				events += len(batch)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
