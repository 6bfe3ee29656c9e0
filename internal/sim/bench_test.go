package sim_test

import (
	"testing"

	"ftspm/internal/core"
	"ftspm/internal/profile"
	"ftspm/internal/sim"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// BenchmarkMachineRun times the scalar simulator alone: one FTSPM run
// of the sha workload's replayed scale-0.25 trace, on a fresh machine
// per iteration (machine construction is outside the timer). Trace
// generation, profiling and mapping happen once, before the timer.
func BenchmarkMachineRun(b *testing.B) {
	w, err := workloads.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	events := w.TraceEvents(0.25)
	prof, err := profile.Run(w.Program(), trace.Replay(events))
	if err != nil {
		b.Fatal(err)
	}
	spec := core.MustSpec(core.StructFTSPM)
	mapping, err := core.MapBlocks(prof, spec, core.DefaultThresholds(), core.PriorityReliability)
	if err != nil {
		b.Fatal(err)
	}
	cfg := spec.SimConfig(mapping.Placement)
	b.ReportAllocs()
	b.ResetTimer()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := sim.New(w.Program(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := m.Run(trace.Replay(events))
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.Accesses
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}
