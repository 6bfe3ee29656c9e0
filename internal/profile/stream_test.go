package profile

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// nextOnly hides a stream's batch reader, so trace.ReadBatch fills its
// buffer one Next call at a time.
type nextOnly struct{ s trace.Stream }

func (n nextOnly) Next() (trace.Event, bool) { return n.s.Next() }

// streamVariants returns one constructor per way a trace can reach the
// profiler: a replayed slice (batches are windows of it), a text-codec
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

// TestProfileStreamMatchesSlice: the profiler must see the identical
// event sequence however the trace reaches it — materialized, streamed
// from the generator, round-tripped through the text codec, or wrapped
// — so every Table I column, the word-write histograms, and the
// timeline length agree. It covers every workload's whole trace, and
// case-study prefixes shorter than, just under, and just over one
// batch.
func TestProfileStreamMatchesSlice(t *testing.T) {
	const scale = 0.05
	type tc struct {
		name   string
		w      workloads.Workload
		events []trace.Event
		gen    func() trace.Stream
	}
	var cases []tc
	for _, w := range workloads.All() {
		cases = append(cases, tc{w.Name, w, w.TraceEvents(scale), func() trace.Stream { return w.TraceStream(scale) }})
	}
	cs := workloads.CaseStudy()
	full := cs.TraceEvents(scale)
	for _, n := range []int{0, 1, trace.BatchLen - 1, trace.BatchLen + 1} {
		cases = append(cases, tc{fmt.Sprintf("%s[:%d]", cs.Name, n), cs, full[:n], nil})
	}
	for _, c := range cases {
		want, err := Run(c.w.Program(), trace.Replay(c.events))
		if err != nil {
			t.Fatalf("%s: slice profile: %v", c.name, err)
		}
		for name, mk := range streamVariants(t, c.events, c.gen) {
			got, err := Run(c.w.Program(), mk())
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s: profile diverges from the replayed slice", c.name, name)
			}
		}
	}
}
