package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentCampaignsSeparateCheckpoints runs two campaigns
// concurrently against distinct checkpoint files in one shared
// directory — the ftspmd serving pattern, where every async job owns a
// journal in the server's data dir. Under -race this doubles as a
// data-race check on the journal layer; the assertions prove the two
// journals never interleave: every line parses, every record belongs to
// its own campaign, and a resume on each file skips exactly its jobs.
func TestConcurrentCampaignsSeparateCheckpoints(t *testing.T) {
	dir := t.TempDir()
	const jobsPer = 20
	mkJobs := func(prefix string) []Job {
		jobs := make([]Job, jobsPer)
		for i := range jobs {
			i := i
			jobs[i] = Job{
				ID:  fmt.Sprintf("%s/job-%02d", prefix, i),
				Run: jsonRun(func(context.Context) (int, error) { return i * i, nil }),
			}
		}
		return jobs
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			prefix := fmt.Sprintf("campaign-%d", c)
			cfg := Config{
				Workers:        4,
				CheckpointPath: filepath.Join(dir, prefix+".ckpt"),
				ConfigHash:     "hash-" + prefix,
			}
			rep, err := Run(context.Background(), cfg, mkJobs(prefix))
			if err == nil && rep.Completed != jobsPer {
				err = fmt.Errorf("completed %d of %d", rep.Completed, jobsPer)
			}
			errs[c] = err
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", c, err)
		}
	}

	// Every journal line must parse and belong to its own campaign — a
	// record from the sibling campaign (or a torn/interleaved line)
	// fails here.
	for c := 0; c < 2; c++ {
		prefix := fmt.Sprintf("campaign-%d", c)
		path := filepath.Join(dir, prefix+".ckpt")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(blob))
		ids := make(map[string]bool)
		line := 0
		for sc.Scan() {
			line++
			if line == 1 {
				var h journalHeader
				if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.ConfigHash != "hash-"+prefix {
					t.Fatalf("%s: bad header %q", path, sc.Text())
				}
				continue
			}
			var r Result[int]
			rb, err := UnframeRecord(sc.Bytes())
			if err == nil {
				err = json.Unmarshal(rb, &r)
			}
			if err != nil {
				t.Fatalf("%s line %d: unparseable record %q: %v", path, line, sc.Text(), err)
			}
			if want := prefix + "/"; len(r.ID) < len(want) || r.ID[:len(want)] != want {
				t.Fatalf("%s line %d: foreign record %q leaked into journal", path, line, r.ID)
			}
			if ids[r.ID] {
				t.Fatalf("%s line %d: duplicate record %q", path, line, r.ID)
			}
			ids[r.ID] = true
		}
		if len(ids) != jobsPer {
			t.Fatalf("%s: %d records, want %d", path, len(ids), jobsPer)
		}

		// A resume over the journal must skip every job.
		cfg := Config{
			CheckpointPath: path,
			Resume:         true,
			ConfigHash:     "hash-" + prefix,
		}
		ran := false
		jobs := mkJobs(prefix)
		for i := range jobs {
			inner := jobs[i].Run
			jobs[i].Run = func(ctx context.Context) (json.RawMessage, error) {
				ran = true
				return inner(ctx)
			}
		}
		rep, err := Run(context.Background(), cfg, jobs)
		if err != nil {
			t.Fatalf("resume %s: %v", path, err)
		}
		if ran || rep.Resumed != jobsPer {
			t.Fatalf("resume %s re-ran jobs (ran=%v resumed=%d)", path, ran, rep.Resumed)
		}
	}
}

// TestConcurrentCampaignsSameCheckpointExcluded pins the guarantee that
// makes the per-job-journal pattern safe: two fresh campaigns can never
// share one checkpoint file. The second opener loses the O_EXCL race
// and fails with ErrCheckpointExists instead of interleaving records.
func TestConcurrentCampaignsSameCheckpointExcluded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.ckpt")
	gate := make(chan struct{})
	jobs := func() []Job {
		return []Job{{
			ID: "only",
			Run: jsonRun(func(context.Context) (int, error) {
				<-gate // hold the first campaign open until both have tried the file
				return 1, nil
			}),
		}}
	}

	results := make(chan error, 2)
	for c := 0; c < 2; c++ {
		go func() {
			_, err := Run(context.Background(),
				Config{CheckpointPath: path, ConfigHash: "h"}, jobs())
			results <- err
		}()
	}
	// Exactly one campaign must fail with ErrCheckpointExists; unblock
	// the winner once the loser has been rejected.
	first := <-results
	if !errors.Is(first, ErrCheckpointExists) {
		t.Fatalf("first finisher err = %v, want ErrCheckpointExists", first)
	}
	close(gate)
	if second := <-results; second != nil {
		t.Fatalf("surviving campaign err = %v, want nil", second)
	}
}
