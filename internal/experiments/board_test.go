package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/spm"
)

// boardTestOptions is a three-structure packed soak of four 64-lane
// batches per structure.
func boardTestOptions() (SoakOptions, []core.Structure) {
	rec := spm.DefaultRecovery()
	return SoakOptions{
			Trials: 256, Scale: 0.02, StrikesPerAccess: 0.01, Seed: 3, Recovery: &rec,
		}, []core.Structure{
			core.StructFTSPM, core.StructPureSRAM, core.StructPureSTT,
		}
}

// batchKey names one (structure, batch) computation.
type batchKey struct {
	s core.Structure
	b int
}

// runBoardSource runs every job of src on workers and fails the test
// if the campaign does not finish within a minute.
func runBoardSource(t *testing.T, src *JobSource, workers int) *campaign.Report {
	t.Helper()
	type result struct {
		rep *campaign.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := CampaignConfig{Workers: workers}.RunLocal(context.Background(), src)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.rep
	case <-time.After(time.Minute):
		t.Fatal("soak campaign hung")
		return nil
	}
}

// TestSoakBoardOverlaps pins the point of the batch board: on two
// workers the packed batches of different structures run at the same
// time, a structure never has two batches in flight (one engine each),
// and every batch is computed exactly once.
func TestSoakBoardOverlaps(t *testing.T) {
	opts, structures := boardTestOptions()
	src, err := SoakSource(opts, structures)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu          sync.Mutex
		inFlight    = map[core.Structure]int{}
		total, peak int
		computed    = map[batchKey]int{}
		overlapped  = make(chan struct{})
	)
	src.soak.batchHook = func(s core.Structure, b int, _ bool) func() {
		mu.Lock()
		inFlight[s]++
		if inFlight[s] > 1 {
			t.Errorf("%v has %d batches in flight", s, inFlight[s])
		}
		total++
		if total > peak {
			peak = total
			if peak == 2 {
				close(overlapped)
			}
		}
		computed[batchKey{s, b}]++
		first := len(computed) == 1
		mu.Unlock()
		// Hold the first batch until a second one starts, so the
		// overlap does not hang on scheduling luck; a board that never
		// overlaps fails below after the bound.
		if first {
			select {
			case <-overlapped:
			case <-time.After(10 * time.Second):
			}
		}
		return func() {
			mu.Lock()
			inFlight[s]--
			total--
			mu.Unlock()
		}
	}
	rep := runBoardSource(t, src, 2)
	if rep.Failed != 0 || rep.Completed != len(src.IDs) {
		t.Fatalf("campaign: %d completed, %d failed of %d", rep.Completed, rep.Failed, len(src.IDs))
	}
	if peak < 2 {
		t.Errorf("at most %d batch in flight at once, want 2: the workers never overlapped", peak)
	}
	nb := (opts.Trials + 63) / 64
	if len(computed) != len(structures)*nb {
		t.Errorf("computed %d distinct batches, want %d", len(computed), len(structures)*nb)
	}
	for _, s := range structures {
		for b := 0; b < nb; b++ {
			if n := computed[batchKey{s, b}]; n != 1 {
				t.Errorf("%v batch %d computed %d times, want once", s, b, n)
			}
		}
	}
}

// TestSoakHelpsOnlyWantedBatches pins the wanted set: a source handed
// the 64 IDs of one batch (a fabric worker's chunk) computes that batch
// alone, however many of its workers wait for it, and maps no other
// structure.
func TestSoakHelpsOnlyWantedBatches(t *testing.T) {
	opts, structures := boardTestOptions()
	src, err := SoakSource(opts, structures)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		computed []batchKey
	)
	src.soak.batchHook = func(s core.Structure, b int, _ bool) func() {
		mu.Lock()
		computed = append(computed, batchKey{s, b})
		mu.Unlock()
		return func() {}
	}
	ids := make([]string, 0, 64)
	for tr := 64; tr < 128; tr++ {
		ids = append(ids, soakJobID(core.StructPureSRAM, tr))
	}
	jobs, err := src.Jobs(ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := SetupCount()
	rep, err := campaign.Run(context.Background(), campaign.Config{Workers: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Completed != len(ids) {
		t.Fatalf("chunk: %d completed, %d failed of %d", rep.Completed, rep.Failed, len(ids))
	}
	if want := []batchKey{{core.StructPureSRAM, 1}}; fmt.Sprint(computed) != fmt.Sprint(want) {
		t.Errorf("computed batches %v, want %v alone", computed, want)
	}
	if n := SetupCount() - before; n != 2 {
		t.Errorf("chunk did %d set-ups, want 2: the trace and profile, and one mapping", n)
	}
}

// TestSoakBatchPanicIsolated pins the board's panic cleanup: a panic
// in a helped batch fails the helping job alone, the batch is
// recomputed for its own jobs, every other trial matches an unpanicked
// run byte for byte, and no waiter hangs.
func TestSoakBatchPanicIsolated(t *testing.T) {
	opts, structures := boardTestOptions()
	opts.Trials = 128
	clean, err := SoakSource(opts, structures)
	if err != nil {
		t.Fatal(err)
	}
	want := runBoardSource(t, clean, 1)

	src, err := SoakSource(opts, structures)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	helpedStarted := make(chan struct{})
	src.soak.batchHook = func(s core.Structure, b int, helped bool) func() {
		if helped {
			first := false
			once.Do(func() { first = true; close(helpedStarted) })
			if first {
				panic("seam: helped batch")
			}
		} else if s == core.StructFTSPM && b == 0 {
			// Keep the first batch in flight until another job helps.
			select {
			case <-helpedStarted:
			case <-time.After(10 * time.Second):
			}
		}
		return func() {}
	}
	got := runBoardSource(t, src, 2)
	select {
	case <-helpedStarted:
	default:
		t.Fatal("no job helped with another batch; the panic was never injected")
	}
	if got.Failed != 1 || got.Completed != len(src.IDs)-1 {
		t.Fatalf("panicked campaign: %d completed, %d failed of %d; want exactly one failure",
			got.Completed, got.Failed, len(src.IDs))
	}
	for _, id := range src.IDs {
		r := got.Results[id]
		if r.Status == campaign.StatusFailed {
			if !strings.Contains(r.Err, "seam: helped batch") {
				t.Errorf("%s failed with %q, want the seam panic", id, r.Err)
			}
			continue
		}
		if !bytes.Equal(r.Value, want.Results[id].Value) {
			t.Errorf("%s = %s, want %s as in the unpanicked run", id, r.Value, want.Results[id].Value)
		}
	}
}
