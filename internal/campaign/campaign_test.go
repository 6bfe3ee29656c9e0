package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// jsonRun adapts a typed job body to a Job runner, marshaling its
// value as the experiments job sources marshal theirs.
func jsonRun[R any](run func(context.Context) (R, error)) func(context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		v, err := run(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(v)
	}
}

// decode returns the decoded value of a done result.
func decode[R any](t *testing.T, r Result[json.RawMessage]) R {
	t.Helper()
	var v R
	if err := json.Unmarshal(r.Value, &v); err != nil {
		t.Fatalf("decode %s value %q: %v", r.ID, r.Value, err)
	}
	return v
}

// sumJobs builds n jobs returning their own index.
func sumJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			ID:  fmt.Sprintf("job/%02d", i),
			Run: jsonRun(func(context.Context) (int, error) { return i, nil }),
		}
	}
	return jobs
}

func TestRunCompletesAllJobs(t *testing.T) {
	rep, err := Run(context.Background(), Config{Workers: 3}, sumJobs(17))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 17 || rep.Failed != 0 || rep.Incomplete() {
		t.Fatalf("report: %+v", rep)
	}
	for i := 0; i < 17; i++ {
		r, ok := rep.Results[fmt.Sprintf("job/%02d", i)]
		if !ok || r.Status != StatusDone || decode[int](t, r) != i || r.Attempts != 1 {
			t.Fatalf("job %d result: %+v (ok=%v)", i, r, ok)
		}
	}
}

func TestPanicIsolatedToOneJob(t *testing.T) {
	jobs := sumJobs(8)
	jobs[3].Run = jsonRun(func(context.Context) (int, error) { panic("poisoned job") })
	rep, err := Run(context.Background(), Config{Workers: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 7 || rep.Failed != 1 {
		t.Fatalf("completed=%d failed=%d", rep.Completed, rep.Failed)
	}
	r := rep.Results["job/03"]
	if r.Status != StatusFailed {
		t.Fatalf("poisoned job status %q", r.Status)
	}
	if !strings.Contains(r.Err, "poisoned job") {
		t.Errorf("error lost the panic value: %q", r.Err)
	}
	if !strings.Contains(r.Stack, "campaign_test") {
		t.Errorf("stack does not reach the panicking frame:\n%s", r.Stack)
	}
	if r.Cause == nil {
		t.Error("live failure lost its error value")
	}
}

func TestRetryWithBackoffEventuallySucceeds(t *testing.T) {
	var tries atomic.Int32
	jobs := []Job{{
		ID: "flaky",
		Run: jsonRun(func(context.Context) (int, error) {
			if tries.Add(1) < 3 {
				return 0, errors.New("transient")
			}
			return 42, nil
		}),
	}}
	rep, err := Run(context.Background(), Config{Attempts: 5, Backoff: time.Millisecond}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results["flaky"]
	if r.Status != StatusDone || decode[int](t, r) != 42 || r.Attempts != 3 {
		t.Fatalf("flaky result: %+v", r)
	}
}

func TestRetryBudgetExhaustedIsFailedPermanent(t *testing.T) {
	var tries atomic.Int32
	jobs := []Job{{
		ID: "doomed",
		Run: jsonRun(func(context.Context) (int, error) {
			tries.Add(1)
			return 0, errors.New("always broken")
		}),
	}}
	rep, err := Run(context.Background(), Config{Attempts: 3, Backoff: time.Millisecond}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results["doomed"]
	if r.Status != StatusFailed || r.Attempts != 3 || tries.Load() != 3 {
		t.Fatalf("doomed result: %+v (tries %d)", r, tries.Load())
	}
}

func TestJobDeadline(t *testing.T) {
	jobs := []Job{{
		ID: "slow",
		Run: jsonRun(func(ctx context.Context) (int, error) {
			<-ctx.Done() // a well-behaved job observes its deadline
			return 0, ctx.Err()
		}),
	}}
	start := time.Now()
	rep, err := Run(context.Background(), Config{JobTimeout: 20 * time.Millisecond}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the job (%v)", elapsed)
	}
	r := rep.Results["slow"]
	if r.Status != StatusFailed || !strings.Contains(r.Err, "deadline") {
		t.Fatalf("slow result: %+v", r)
	}
}

func TestGracefulDrainFinishesInFlightJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// One worker: cancel as soon as the first job finishes; the rest
	// stay pending.
	cfg := Config{
		Workers:     1,
		OnJobResult: func(Result[json.RawMessage]) { cancel() },
	}
	rep, err := Run(ctx, cfg, sumJobs(6))
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if !rep.Incomplete() {
		t.Fatal("report not marked incomplete")
	}
	// At least one finished (the in-flight one) and at least one is
	// pending; nothing was dropped.
	if rep.Completed < 1 || len(rep.PendingIDs) < 1 ||
		rep.Completed+len(rep.PendingIDs) != 6 {
		t.Fatalf("completed=%d pending=%v", rep.Completed, rep.PendingIDs)
	}
}

func TestDrainAbandonsJobBetweenRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []Job{{
		ID: "retrying",
		Run: jsonRun(func(context.Context) (int, error) {
			cancel() // fail after cancelling: the backoff sleep must abort
			return 0, errors.New("transient")
		}),
	}}
	rep, err := Run(ctx, Config{Attempts: 10, Backoff: time.Hour}, jobs)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	// The job must be pending (retryable on resume), not failed-permanent.
	if _, ok := rep.Results["retrying"]; ok {
		t.Fatal("abandoned job was recorded as finished")
	}
	if len(rep.PendingIDs) != 1 || rep.PendingIDs[0] != "retrying" {
		t.Fatalf("pending = %v", rep.PendingIDs)
	}
}

func TestDuplicateJobIDsRejected(t *testing.T) {
	jobs := sumJobs(2)
	jobs[1].ID = jobs[0].ID
	if _, err := Run(context.Background(), Config{}, jobs); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("err = %v, want ErrDuplicateJob", err)
	}
}

func TestCheckpointResumeSkipsFinishedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	const hash = "cfg-v1"
	var ran atomic.Int32
	mkJobs := func() []Job {
		jobs := sumJobs(10)
		for i := range jobs {
			inner := jobs[i].Run
			jobs[i].Run = func(ctx context.Context) (json.RawMessage, error) {
				ran.Add(1)
				return inner(ctx)
			}
		}
		return jobs
	}

	// First run: cancel after 4 finished jobs (simulated crash).
	ctx, cancel := context.WithCancel(context.Background())
	var finished atomic.Int32
	cfg := Config{
		Workers:        1,
		CheckpointPath: path,
		ConfigHash:     hash,
		OnJobResult: func(Result[json.RawMessage]) {
			if finished.Add(1) == 4 {
				cancel()
			}
		},
	}
	rep, err := Run(ctx, cfg, mkJobs())
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("first run err = %v, want ErrIncomplete", err)
	}
	firstDone := rep.Completed

	// Resume: only the remainder runs, and the union is complete.
	ran.Store(0)
	cfg2 := Config{Workers: 2, CheckpointPath: path, ConfigHash: hash, Resume: true}
	rep2, err := Run(context.Background(), cfg2, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != firstDone {
		t.Errorf("resumed %d jobs, first run finished %d", rep2.Resumed, firstDone)
	}
	if int(ran.Load()) != 10-firstDone {
		t.Errorf("resume executed %d jobs, want %d", ran.Load(), 10-firstDone)
	}
	if rep2.Completed != 10 || rep2.Incomplete() {
		t.Fatalf("resume report: %+v", rep2)
	}
	for i := 0; i < 10; i++ {
		if v := decode[int](t, rep2.Results[fmt.Sprintf("job/%02d", i)]); v != i {
			t.Errorf("job %d value %d after resume", i, v)
		}
	}
}

func TestResumedFailedPermanentIsNotRetried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	jobs := []Job{{
		ID:  "broken",
		Run: jsonRun(func(context.Context) (int, error) { return 0, errors.New("permanent") }),
	}}
	cfg := Config{CheckpointPath: path, ConfigHash: "h"}
	if _, err := Run(context.Background(), cfg, jobs); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	jobs[0].Run = jsonRun(func(context.Context) (int, error) { ran.Add(1); return 1, nil })
	cfg.Resume = true
	rep, err := Run(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Error("failed-permanent job was re-run on resume")
	}
	if rep.Failed != 1 || !rep.Results["broken"].Resumed {
		t.Fatalf("report: %+v", rep)
	}
}

func TestFreshRunOntoExistingCheckpointRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cfg := Config{CheckpointPath: path, ConfigHash: "h"}
	if _, err := Run(context.Background(), cfg, sumJobs(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), cfg, sumJobs(1)); !errors.Is(err, ErrCheckpointExists) {
		t.Fatalf("err = %v, want ErrCheckpointExists", err)
	}
}

func TestResumeWithoutFileRejected(t *testing.T) {
	cfg := Config{
		CheckpointPath: filepath.Join(t.TempDir(), "nope.jsonl"),
		ConfigHash:     "h",
		Resume:         true,
	}
	if _, err := Run(context.Background(), cfg, sumJobs(1)); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestResumeConfigHashMismatchIsHardError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cfg := Config{CheckpointPath: path, ConfigHash: "hash-a"}
	if _, err := Run(context.Background(), cfg, sumJobs(2)); err != nil {
		t.Fatal(err)
	}
	cfg.ConfigHash = "hash-b"
	cfg.Resume = true
	if _, err := Run(context.Background(), cfg, sumJobs(2)); !errors.Is(err, ErrConfigHashMismatch) {
		t.Fatalf("err = %v, want ErrConfigHashMismatch", err)
	}
}

func TestHashJSONStableAndSensitive(t *testing.T) {
	type cfg struct {
		Scale float64
		Names []string
	}
	a1, err := HashJSON(cfg{Scale: 0.25, Names: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := HashJSON(cfg{Scale: 0.25, Names: []string{"x", "y"}})
	b, _ := HashJSON(cfg{Scale: 0.5, Names: []string{"x", "y"}})
	if a1 != a2 {
		t.Error("hash not deterministic")
	}
	if a1 == b {
		t.Error("hash insensitive to config change")
	}
}
