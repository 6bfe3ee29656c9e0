package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric/wire"
)

// Satellite regression: eight goroutines streaming results into the
// merger out of order — with overlapping duplicates, as two placements
// of the same job after a lease expiry would produce — must yield a
// report byte-identical to a single writer merging the sorted stream.
// Run under -race: this is also the merger's data-race canary.
func TestMergerConcurrentStreamsByteIdentical(t *testing.T) {
	const n = 64
	results := make([]wire.JobResult, n)
	ids := make([]string, n)
	for i := range results {
		ids[i] = fmt.Sprintf("job-%02d", i)
		results[i] = wire.JobResult{
			ID:       ids[i],
			Status:   campaign.StatusDone,
			Attempts: 1,
			Value:    json.RawMessage(fmt.Sprintf(`{"trial":%d,"metric":%d}`, i, i*i)),
		}
		if i%7 == 3 {
			results[i].Status = campaign.StatusFailed
			results[i].Value = nil
			results[i].Err = fmt.Sprintf("sim fault %d", i)
		}
	}

	// Golden: one writer, sorted (ID) order.
	golden := newMerger(memLedger(t, ids...))
	for _, r := range results {
		if _, err := golden.add(r, "w1"); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent: 8 interleaved streams, each shuffled, each also
	// replaying a slice of its neighbour's results as duplicates.
	m := newMerger(memLedger(t, ids...))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []wire.JobResult
			for i := g; i < n; i += 8 {
				mine = append(mine, results[i])
			}
			for i := (g + 1) % 8; i < n; i += 16 {
				mine = append(mine, results[i]) // duplicates
			}
			rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
			for _, r := range mine {
				if _, err := m.add(r, fmt.Sprintf("w%d", g)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	rep, err := m.led.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Failed != n {
		t.Fatalf("accounted %d+%d jobs, want %d (duplicates must not double-count)",
			rep.Completed, rep.Failed, n)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	goldenRep, err := golden.led.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(goldenRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("concurrent merge diverged from single-writer golden:\n got %s\nwant %s", got, want)
	}
}

// Resuming needs a journal to resume from; without one the coordinator
// would silently rerun every job.
func TestRunResumeWithoutCheckpointRejected(t *testing.T) {
	src, err := experiments.SweepSource(experiments.Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: []string{"http://127.0.0.1:1"}, Resume: true, ProbeInterval: time.Hour}
	if rep, err := cfg.Run(context.Background(), src); !campaign.IsUsage(err) || rep != nil {
		t.Fatalf("Run(Resume, no checkpoint) = %+v, %v; want a usage error", rep, err)
	}
}
