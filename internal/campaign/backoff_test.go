package campaign

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCancelMidBackoffAbortsPromptly is the regression test for the
// retry backoff honoring the campaign context: the cancellation lands
// while the worker is already asleep inside a (deliberately huge)
// backoff wait, and Run must return promptly with the job still
// pending, not block out the rest of the backoff.
//
// This differs from TestDrainAbandonsJobBetweenRetries, which cancels
// before the backoff starts: here the sleep is in progress, so the test
// fails (by deadlock on a 1h timer) if the wait ever stops selecting on
// ctx.Done().
func TestCancelMidBackoffAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempted := make(chan struct{})
	jobs := []Job{{
		ID: "mid-backoff",
		Run: jsonRun(func(context.Context) (int, error) {
			close(attempted) // first attempt fails; worker enters backoff
			return 0, errors.New("transient")
		}),
	}}

	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		defer close(done)
		rep, err = Run(ctx, Config{Attempts: 10, Backoff: time.Hour}, jobs)
	}()

	<-attempted
	// Give the worker time to actually arm the backoff timer before the
	// cancellation arrives (the pre-arm ordering is covered by
	// TestDrainAbandonsJobBetweenRetries).
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s after cancellation: backoff wait ignores ctx")
	}
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	// The abandoned job must stay pending (retryable on resume), never
	// recorded done or failed-permanent.
	if _, ok := rep.Results["mid-backoff"]; ok {
		t.Fatal("job abandoned mid-backoff was recorded as finished")
	}
	if len(rep.PendingIDs) != 1 || rep.PendingIDs[0] != "mid-backoff" {
		t.Fatalf("pending = %v, want [mid-backoff]", rep.PendingIDs)
	}
}
