package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// cancelTestMachine builds a case-study machine with empty placement
// (every access runs through the caches), big enough to chew through a
// long trace when not canceled.
func cancelTestMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultPlatform()
	cfg.ISPM = []spm.RegionConfig{{Kind: spm.RegionSTT, SizeBytes: 16 * 1024}}
	cfg.DSPM = []spm.RegionConfig{{Kind: spm.RegionSTT, SizeBytes: 16 * 1024}}
	m, err := New(workloads.CaseStudy().Program(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunContextCanceledStopsMidRun proves the run loop's periodic
// cancellation check abandons a long trace instead of simulating it to
// completion: a pre-canceled context must error out wrapping both
// ErrCanceled and the context error, well before the full trace is
// consumed.
func TestRunContextCanceledStopsMidRun(t *testing.T) {
	w := workloads.CaseStudy()
	m := cancelTestMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counting := &trace.CountingStream{S: w.TraceStream(0.25)}
	_, err := m.RunContext(ctx, counting)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	// The loop checks once per batch; a canceled context must stop it
	// at the very first check.
	if counting.N > trace.BatchLen {
		t.Fatalf("consumed %d events after cancellation, want <= %d", counting.N, trace.BatchLen)
	}
}

// TestRunContextDeadlineExceeded covers the deadline flavour: an
// already-expired deadline surfaces context.DeadlineExceeded.
func TestRunContextDeadlineExceeded(t *testing.T) {
	w := workloads.CaseStudy()
	m := cancelTestMachine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := m.RunContext(ctx, w.TraceStream(0.25)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestRunContextBackgroundMatchesRun pins that cancellation support is
// free of behavioural drift: a run under a never-canceled context is
// identical to a plain Run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	w := workloads.CaseStudy()
	m1 := cancelTestMachine(t)
	m2 := cancelTestMachine(t)
	r1, err := m1.Run(w.TraceStream(0.1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.RunContext(context.Background(), w.TraceStream(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Accesses != r2.Accesses {
		t.Fatalf("RunContext drifted from Run: %+v vs %+v", r2, r1)
	}
}

// nextOnly hides a stream's batch reader, so trace.ReadBatch fills its
// buffer one Next call at a time.
type nextOnly struct{ s trace.Stream }

func (n nextOnly) Next() (trace.Event, bool) { return n.s.Next() }

// streamVariants returns one constructor per way a trace can reach the
// run loop: a replayed slice (batches are windows of it), a text-codec
// round trip (Next-only fill), a counting wrapper, and a Next-only
// wrapper. gen, when non-nil, adds the generator stream of the same
// events and a counting wrapper over it.
func streamVariants(t *testing.T, events []trace.Event, gen func() trace.Stream) map[string]func() trace.Stream {
	t.Helper()
	var text bytes.Buffer
	if err := trace.WriteAll(&text, trace.Replay(events)); err != nil {
		t.Fatal(err)
	}
	v := map[string]func() trace.Stream{
		"replay":   func() trace.Stream { return trace.Replay(events) },
		"reader":   func() trace.Stream { return trace.NewReader(bytes.NewReader(text.Bytes())) },
		"counting": func() trace.Stream { return &trace.CountingStream{S: trace.Replay(events)} },
		"next":     func() trace.Stream { return nextOnly{trace.Replay(events)} },
	}
	if gen != nil {
		v["generator"] = gen
		v["counting-generator"] = func() trace.Stream { return &trace.CountingStream{S: gen()} }
	}
	return v
}

// mappedTestMachine builds a case-study machine whose small data blocks
// live in a SEC-DED data SPM and small code blocks in an STT-RAM
// instruction SPM, so runs exercise the SPM path, the encode of every
// write and the cache path together.
func mappedTestMachine(t *testing.T) *Machine {
	t.Helper()
	w := workloads.CaseStudy()
	cfg := DefaultPlatform()
	cfg.ISPM = []spm.RegionConfig{{Kind: spm.RegionSTT, SizeBytes: 16 * 1024}}
	cfg.DSPM = []spm.RegionConfig{{Kind: spm.RegionECC, SizeBytes: 16 * 1024}}
	cfg.Placement = spm.Placement{}
	for _, b := range w.Program().Blocks() {
		switch {
		case b.Size > 8*1024:
		case b.Kind.IsData():
			cfg.Placement[b.ID] = spm.RegionECC
		default:
			cfg.Placement[b.ID] = spm.RegionSTT
		}
	}
	m, err := New(w.Program(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunMatchesAcrossStreams pins that batching changes no result:
// every way of handing the run loop a trace yields a deep-equal Result,
// for traces shorter than, just under, and just over one batch as well
// as a whole workload trace.
func TestRunMatchesAcrossStreams(t *testing.T) {
	w := workloads.CaseStudy()
	const scale = 0.05
	full := w.TraceEvents(scale)
	for _, n := range []int{0, 1, trace.BatchLen - 1, trace.BatchLen + 1, len(full)} {
		events := full[:n]
		var gen func() trace.Stream
		if n == len(full) {
			gen = func() trace.Stream { return w.TraceStream(scale) }
		}
		want, err := mappedTestMachine(t).Run(trace.Replay(events))
		if err != nil {
			t.Fatal(err)
		}
		if want.Accesses == 0 && n > 1 {
			t.Fatalf("%d events: no access simulated", n)
		}
		for name, mk := range streamVariants(t, events, gen) {
			got, err := mappedTestMachine(t).RunContext(context.Background(), mk())
			if err != nil {
				t.Fatalf("%d events, %s: %v", n, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d events, %s: result diverges from the replayed slice:\n%+v\nwant %+v", n, name, got, want)
			}
		}
	}
}

// TestRunContextAllocsIndependentOfLength: the run loop allocates per
// run, never per event or per batch, so a 4x longer trace makes no
// more allocations.
func TestRunContextAllocsIndependentOfLength(t *testing.T) {
	w := workloads.CaseStudy()
	short, long := w.TraceEvents(0.02), w.TraceEvents(0.08)
	allocs := func(events []trace.Event) float64 {
		// Each run needs a fresh machine; the build's own allocations
		// are subtracted below.
		return testing.AllocsPerRun(3, func() {
			m := mappedTestMachine(t)
			if _, err := m.RunContext(context.Background(), trace.Replay(events)); err != nil {
				t.Fatal(err)
			}
		})
	}
	build := testing.AllocsPerRun(3, func() { mappedTestMachine(t) })
	s, l := allocs(short)-build, allocs(long)-build
	t.Logf("allocations per run: %.0f (1x), %.0f (4x)", s, l)
	if l > s {
		t.Fatalf("RunContext made %.0f allocations on a 4x trace, %.0f on the 1x trace", l, s)
	}
}
