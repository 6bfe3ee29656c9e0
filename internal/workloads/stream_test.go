package workloads

import (
	"reflect"
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
// sequence (the seeded-replay property every evaluation group relies
// on: it streams each trace twice).
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
