package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ftspm/internal/core"
	"ftspm/internal/profile"
	"ftspm/internal/sim"
	"ftspm/internal/workloads"
)

var sweepTestOpts = Options{Scale: 0.05}

// outcomesAgree compares the externally meaningful fields of two
// outcomes: execution accounting, energies, reliability, endurance,
// and the placement itself.
func outcomesAgree(t *testing.T, label string, a, b Outcome) {
	t.Helper()
	if a.Sim.Cycles != b.Sim.Cycles {
		t.Fatalf("%s: cycles %d vs %d", label, a.Sim.Cycles, b.Sim.Cycles)
	}
	if a.Sim.SPMDynamicEnergy != b.Sim.SPMDynamicEnergy ||
		a.Sim.SPMStaticEnergy != b.Sim.SPMStaticEnergy {
		t.Fatalf("%s: energies diverge", label)
	}
	if a.AVF.SDCAVF != b.AVF.SDCAVF || a.AVF.DUEAVF != b.AVF.DUEAVF {
		t.Fatalf("%s: AVF diverges (%v/%v vs %v/%v)", label,
			a.AVF.SDCAVF, a.AVF.DUEAVF, b.AVF.SDCAVF, b.AVF.DUEAVF)
	}
	if a.STTWriteRate != b.STTWriteRate {
		t.Fatalf("%s: STT write rate %v vs %v", label, a.STTWriteRate, b.STTWriteRate)
	}
	if !reflect.DeepEqual(a.Mapping.Placement, b.Mapping.Placement) {
		t.Fatalf("%s: placements diverge", label)
	}
}

// TestSweepSharedProfileMatchesIndependentRuns is the tentpole
// determinism gate: the sweep — which profiles each workload once and
// replays one shared trace — must produce outcomes identical to
// independent Evaluate calls that recompute everything per run.
func TestSweepSharedProfileMatchesIndependentRuns(t *testing.T) {
	sw, err := RunSweep(sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	suite := workloads.Suite()
	structures := core.Structures()
	for wi, w := range suite {
		for si, s := range structures {
			independent, err := Evaluate(w, s, sweepTestOpts)
			if err != nil {
				t.Fatal(err)
			}
			outcomesAgree(t, w.Name+"/"+s.String(), sw.Outcomes[wi][si], independent)
		}
	}
}

// TestConcurrentSweepsDoNotInterfere runs two full sweeps in parallel;
// sharing a profile inside one sweep must not leak state across
// sweeps (every generator is seeded, shared slices are read-only).
func TestConcurrentSweepsDoNotInterfere(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]*Sweep, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunSweep(sweepTestOpts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	a, b := results[0], results[1]
	for wi := range a.Outcomes {
		for si := range a.Outcomes[wi] {
			outcomesAgree(t, a.Workloads[wi]+"/"+a.Outcomes[wi][si].Structure.String(),
				a.Outcomes[wi][si], b.Outcomes[wi][si])
		}
	}
}

func TestRunSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw, err := RunSweepContext(ctx, sweepTestOpts)
	if sw != nil {
		t.Fatal("cancelled sweep returned results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCachedTraceMatchesGenerator guards the ablation drivers' shared
// cache: a replayed cached trace must profile identically to a fresh
// generator stream.
func TestCachedTraceMatchesGenerator(t *testing.T) {
	w := workloads.CaseStudy()
	a, err := Evaluate(w, core.StructFTSPM, sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.MustSpec(core.StructFTSPM)
	b, err := evaluateSpecStream(context.Background(), w, spec, a.Profile, cachedTrace(w, sweepTestOpts.Scale), sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	outcomesAgree(t, "cached-vs-stream", a, b)
}

// TestSweepAllocsIndependentOfScale: a sweep streams each trace and
// never holds it, so the bytes it allocates do not grow with the trace
// length. A materialized trace per workload made them grow about
// linearly with scale.
func TestSweepAllocsIndependentOfScale(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-suite sweeps")
	}
	allocated := func(scale float64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunSweep(Options{Scale: scale}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(0.05), allocated(0.4)
	t.Logf("allocated %.1f MB at scale 0.05, %.1f MB at scale 0.4", float64(small)/1e6, float64(large)/1e6)
	if float64(large) > 1.25*float64(small) {
		t.Fatalf("scale 0.4 allocated %d bytes, more than 1.25x the %d of scale 0.05", large, small)
	}
}

// TestSweepJobRunTwiceSimulatesTwice runs one sweep job twice from one
// source, as integrity audits and retries do. The first run takes the
// outcome its group set up; the second must simulate again on its own.
// Handing out an outcome clears it from the group, so a second run
// that read it back would return an empty outcome, not these bytes.
func TestSweepJobRunTwiceSimulatesTwice(t *testing.T) {
	src, err := SweepSource(sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	ftspmID := sweepJobID("sha", core.StructFTSPM)
	for _, id := range []string{ftspmID, sweepJobID("sha", core.StructPureSRAM)} {
		jobs, err := src.JobsUncached([]string{id})
		if err != nil {
			t.Fatal(err)
		}
		before := SetupCount()
		first, err := jobs[0].Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		second, err := jobs[0].Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: second run differs from the first:\n%s\n%s", id, first, second)
		}
		want := uint64(0) // the group was set up by the first job
		if id == ftspmID {
			want = 1
		}
		if n := SetupCount() - before; n != want {
			t.Fatalf("%s: %d group set-ups, want %d", id, n, want)
		}
	}
}

// TestSweepGroupHandsOutOnce: the first run of each job takes its
// group's outcome, and a second run never reads it back. Every slot the
// group holds is poisoned after the first run, so a job that read the
// group again would return the poison, and one that re-simulated on
// its first run would not.
func TestSweepGroupHandsOutOnce(t *testing.T) {
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	structures := core.Structures()
	const poison = 12345
	sh := &sharedWorkload{}
	first, err := runSweepJob(context.Background(), w, structures, 2, sh, sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sh.outs {
		sh.outs[i].out.Sim.Cycles = poison
	}
	again, err := runSweepJob(context.Background(), w, structures, 2, sh, sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Sim.Cycles == poison {
		t.Fatal("a second run read back the group's outcome")
	}
	outcomesAgree(t, "second run", first, again)
	sibling, err := runSweepJob(context.Background(), w, structures, 0, sh, sweepTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if sibling.Sim.Cycles != poison {
		t.Fatalf("a sibling's first run did not take its group outcome (cycles %d)", sibling.Sim.Cycles)
	}
}

// TestLockstepMatchesSoloRuns: feeding one trace to every structure's
// machine in lockstep gives each machine exactly the Result of running
// it alone on a fresh stream.
func TestLockstepMatchesSoloRuns(t *testing.T) {
	for _, name := range []string{"casestudy", "qsort", "jpeg"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.Run(w.Program(), w.TraceStream(sweepTestOpts.Scale))
		if err != nil {
			t.Fatal(err)
		}
		var machines []*sim.Machine
		var want []sim.Result
		for _, s := range core.Structures() {
			grouped, err := mapSpec(w, core.MustSpec(s), prof, sweepTestOpts)
			if err != nil {
				t.Fatal(err)
			}
			solo, err := mapSpec(w, core.MustSpec(s), prof, sweepTestOpts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := solo.machine.RunContext(context.Background(), w.TraceStream(sweepTestOpts.Scale))
			if err != nil {
				t.Fatal(err)
			}
			machines = append(machines, grouped.machine)
			want = append(want, res)
		}
		got, errs := sim.RunLockstep(w.TraceStream(sweepTestOpts.Scale), machines)
		for i, s := range core.Structures() {
			if errs[i] != nil {
				t.Fatalf("%s/%v: %v", name, s, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s/%v: lockstep result differs from a solo run:\n%+v\n%+v", name, s, got[i], want[i])
			}
		}
	}
}

// TestEnduranceGrowsWithScale pins the scale law of the reproduction's
// endurance headline: a longer trace gives the STT-RAM of pure STT more
// time to wear relative to FTSPM's, so the Fig. 8 geo-mean ratio rises
// strictly with scale (EXPERIMENTS.md, deviations).
func TestEnduranceGrowsWithScale(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-suite sweeps")
	}
	prev := 0.0
	for _, scale := range []float64{0.25, 0.5, 1} {
		sw, err := RunSweep(Options{Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Summarize(sw)
		if err != nil {
			t.Fatal(err)
		}
		got := sum.Headlines.EnduranceImprovement
		t.Logf("scale %g: endurance improvement %.1fx", scale, got)
		if !(got > prev) {
			t.Fatalf("scale %g: endurance improvement %v, not above %v at the previous scale", scale, got, prev)
		}
		prev = got
	}
}
