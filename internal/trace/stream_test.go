package trace

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestReplaySharesBacking: Replay streams read in place and each owns
// its cursor, so any number of them can interleave over one slice.
func TestReplaySharesBacking(t *testing.T) {
	events := sampleEvents()
	a, b := Replay(events), Replay(events)
	var gotA, gotB []Event
	for { // interleave the two cursors
		ea, okA := a.Next()
		if okA {
			gotA = append(gotA, ea)
		}
		eb, okB := b.Next()
		if okB {
			gotB = append(gotB, eb)
		}
		if !okA && !okB {
			break
		}
	}
	if !reflect.DeepEqual(gotA, events) || !reflect.DeepEqual(gotB, events) {
		t.Fatal("interleaved replay streams diverged from the source")
	}
}

func TestReplayDoesNotCopy(t *testing.T) {
	events := sampleEvents()
	s := Replay(events)
	if s.Len() != len(events) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(events))
	}
	// NewSliceStream copies; Replay must not (that is its contract).
	events[0].StackBytes = 99
	e, _ := s.Next()
	if e.StackBytes != 99 {
		t.Fatal("Replay copied the slice; it must read in place")
	}
}

func TestCountingStream(t *testing.T) {
	events := sampleEvents()
	c := &CountingStream{S: Replay(events)}
	got := Collect(c, 0)
	if c.N != len(events) {
		t.Fatalf("counted %d events, want %d", c.N, len(events))
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("counting wrapper altered the sequence")
	}
	if _, ok := c.Next(); ok || c.N != len(events) {
		t.Fatal("exhausted stream must not keep counting")
	}
}

// nextOnly hides a stream's BatchReader, forcing ReadBatch's fill path.
type nextOnly struct{ s Stream }

func (n nextOnly) Next() (Event, bool) { return n.s.Next() }

// drainBatches reads s to exhaustion in batches of size n, checking
// that only the last non-empty batch is short.
func drainBatches(t *testing.T, s Stream, n int) []Event {
	t.Helper()
	buf := make([]Event, n)
	var out []Event
	short := false
	for {
		b := ReadBatch(s, buf)
		if len(b) == 0 {
			return out
		}
		if short {
			t.Fatalf("batch of %d after a short batch", len(b))
		}
		short = len(b) < n
		out = append(out, b...)
	}
}

// TestReadBatchMatchesNext: every stream flavour hands out the same
// sequence in batches as through Next, for batch sizes around the
// trace length.
func TestReadBatchMatchesNext(t *testing.T) {
	events := sampleEvents()
	for _, n := range []int{1, 3, len(events) - 1, len(events), len(events) + 1, BatchLen} {
		for name, s := range map[string]Stream{
			"replay":   Replay(events),
			"counting": &CountingStream{S: Replay(events)},
			"next":     nextOnly{Replay(events)},
		} {
			if got := drainBatches(t, s, n); !reflect.DeepEqual(got, events) {
				t.Fatalf("%s, batch %d: got %v, want %v", name, n, got, events)
			}
			if c, ok := s.(*CountingStream); ok && c.N != len(events) {
				t.Fatalf("batch %d: counted %d events, want %d", n, c.N, len(events))
			}
		}
	}
	if got := drainBatches(t, Replay(nil), BatchLen); len(got) != 0 {
		t.Fatalf("empty trace yielded %d events", len(got))
	}
}

// TestReadBatchWindowsSlice: a SliceStream batch is a window of the
// shared slice, not a copy, and its capacity ends at the window so an
// append cannot overwrite the events after it.
func TestReadBatchWindowsSlice(t *testing.T) {
	events := sampleEvents()
	s := Replay(events)
	b := ReadBatch(s, make([]Event, 2))
	if &b[0] != &events[0] || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("batch is not a capped window of the replayed slice (len %d, cap %d)", len(b), cap(b))
	}
	if e, _ := s.Next(); e != events[2] {
		t.Fatalf("Next after a batch = %v, want %v", e, events[2])
	}
}

// TestEventLayout pins the 24-byte event: materialized traces hold
// millions of them.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Fatalf("sizeof(Event) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Access{}); got != 16 {
		t.Fatalf("sizeof(Access) = %d, want 16", got)
	}
}
