package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// A checkpoint append (write+fsync) failure must be returned to the
// caller — not just logged — with the affected job left pending, so a
// coordinator can re-queue the job whose result was never durably
// recorded. The fabric merger relies on this contract: it acks a job
// only after this layer reports the record durable.
func TestJournalAppendFailureReturnsErrorAndKeepsJobPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	appendHook = func(r Result[json.RawMessage]) error {
		if r.ID == "bad" {
			return errors.New("injected fsync failure")
		}
		return nil
	}
	defer func() { appendHook = nil }()

	var observed []string
	jobs := []Job{
		{ID: "good", Run: jsonRun(func(context.Context) (int, error) { return 1, nil })},
		{ID: "bad", Run: jsonRun(func(context.Context) (int, error) { return 2, nil })},
		{ID: "after", Run: jsonRun(func(context.Context) (int, error) { return 3, nil })},
	}
	rep, err := Run(context.Background(), Config{
		Workers:        1,
		CheckpointPath: path,
		ConfigHash:     "h1",
		OnJobResult: func(r Result[json.RawMessage]) {
			observed = append(observed, r.ID)
		},
	}, jobs)

	if err == nil {
		t.Fatal("journal append failure was not returned")
	}
	if !strings.Contains(err.Error(), "checkpoint") || !strings.Contains(err.Error(), "injected fsync failure") {
		t.Fatalf("err = %v, want checkpoint error carrying the injected cause", err)
	}
	// The un-journaled job (and everything after it: the journal error
	// is sticky) must be pending, never accounted as finished.
	if _, ok := rep.Results["bad"]; ok {
		t.Fatal("job with failed journal append was recorded as finished")
	}
	if len(rep.PendingIDs) != 2 || rep.PendingIDs[0] != "bad" || rep.PendingIDs[1] != "after" {
		t.Fatalf("pending = %v, want [bad after]", rep.PendingIDs)
	}
	if rep.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (only the job journaled before the failure)", rep.Completed)
	}
	// The result observer must only see durable results.
	if len(observed) != 1 || observed[0] != "good" {
		t.Fatalf("OnJobResult saw %v, want [good]", observed)
	}
}
