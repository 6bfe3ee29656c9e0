package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"ftspm/internal/faults"
	"ftspm/internal/server"
	"ftspm/internal/server/client"
)

func startDaemon(t *testing.T, dataDir string) (*server.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cl, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	return srv, cl
}

// soakParams is the shared job spec of the drain/resume tests; both the
// interrupted-then-resumed run and the golden run must use identical
// parameters for the checkpoint config hash (and the comparison) to be
// meaningful.
func soakParams(checkpoint string, resume bool) server.SoakRequest {
	return server.SoakRequest{
		Trials:     8,
		Scale:      0.05,
		Strike:     0.01,
		Seed:       99,
		Workers:    1,
		Checkpoint: checkpoint,
		Resume:     resume,
		// Scalar path: drain must land while trials are still in
		// flight, and the packed engine finishes all 8 in one trace
		// pass before the Drain call can race it. Packed/scalar output
		// equivalence is pinned by experiments' lane tests.
		Lanes: 1,
	}
}

func runToCompletion(t *testing.T, cl *client.Client, req server.SoakRequest) server.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	job, err := cl.Soak(ctx, req)
	if err != nil {
		t.Fatalf("submit soak: %v", err)
	}
	st, err := cl.WaitJob(ctx, job.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait soak: %v", err)
	}
	return st
}

// TestSoakJobLifecycle runs a real (tiny) soak campaign end to end
// through the HTTP API and the retrying client.
func TestSoakJobLifecycle(t *testing.T) {
	_, cl := startDaemon(t, t.TempDir())
	st := runToCompletion(t, cl, server.SoakRequest{
		Trials: 2, Scale: 0.02, Strike: 0.01, Seed: 7, Workers: 1,
	})
	if st.State != server.JobDone {
		t.Fatalf("job state = %q (error %q), want done", st.State, st.Error)
	}
	var res server.SoakResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatalf("decode result: %v\n%s", err, st.Result)
	}
	if len(res.Reports) != 1 || res.Reports[0].Trials != 2 || res.Reports[0].Accesses == 0 {
		t.Fatalf("unexpected soak result: %+v", res)
	}
	if res.Campaign != nil {
		t.Fatalf("clean campaign should omit salvage status, got %+v", res.Campaign)
	}
	jobs, err := cl.Jobs(context.Background())
	if err != nil || len(jobs.Jobs) != 1 {
		t.Fatalf("job list: %v %+v, want exactly the one job", err, jobs)
	}
}

// TestStormSoakJobAndHealthCounters runs a storm soak with the
// adaptive defenses through the HTTP API and checks the /healthz storm
// counters: the job is counted, and the packed engine's refusal of the
// storm shows up as scalar fallbacks.
func TestStormSoakJobAndHealthCounters(t *testing.T) {
	_, cl := startDaemon(t, t.TempDir())
	st := runToCompletion(t, cl, server.SoakRequest{
		Trials: 2, Scale: 0.02, Seed: 7, Workers: 1,
		Storm: &faults.StormConfig{
			StormStrikesPerAccess: 0.25,
			MeanCalmAccesses:      500,
			MeanStormAccesses:     200,
		},
		AdaptiveScrub: true,
	})
	if st.State != server.JobDone {
		t.Fatalf("job state = %q (error %q), want done", st.State, st.Error)
	}
	var res server.SoakResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatalf("decode result: %v\n%s", err, st.Result)
	}
	if len(res.Reports) != 1 || res.Reports[0].Strikes == 0 {
		t.Fatalf("storm soak injected nothing: %+v", res)
	}
	hs, err := cl.Healthz(context.Background())
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hs.Storm == nil {
		t.Fatal("healthz omits the storm counters")
	}
	if hs.Storm.Jobs == 0 {
		t.Errorf("storm jobs served = 0, want >= 1")
	}
	if hs.Storm.ScalarFallbacks == 0 {
		t.Errorf("scalar fallbacks = 0: the packed engine should have declined the storm")
	}
	if c := hs.Storm.ScalarFallbackCauses; c.Storm == 0 || c.Total() != hs.Storm.ScalarFallbacks {
		t.Errorf("scalar fallback causes %+v: want storm > 0 and a sum of %d", c, hs.Storm.ScalarFallbacks)
	}
}

// TestJobCancelIsResumable cancels a long soak mid-run: the campaign
// drains the in-flight trial, journals it, and the job lands in
// canceled with a checkpoint marked resumable.
func TestJobCancelIsResumable(t *testing.T) {
	_, cl := startDaemon(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	job, err := cl.Soak(ctx, server.SoakRequest{
		Trials: 500, Scale: 0.02, Strike: 0.01, Seed: 1, Workers: 1,
		Checkpoint: "cancelme.ckpt",
	})
	if err != nil {
		t.Fatalf("submit soak: %v", err)
	}
	waitState(t, cl, job.ID, server.JobRunning)
	if _, err := cl.Cancel(ctx, job.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st, err := cl.WaitJob(ctx, job.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait canceled job: %v", err)
	}
	if st.State != server.JobCanceled {
		t.Fatalf("state = %q (error %q), want canceled", st.State, st.Error)
	}
	if !st.Resumable || st.Checkpoint != "cancelme.ckpt" {
		t.Fatalf("canceled job not resumable: %+v", st)
	}
	if st.Error == "" {
		t.Fatal("canceled job should carry the cancellation cause")
	}
}

func waitState(t *testing.T, cl *client.Client, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("poll job: %v", err)
		}
		if st.State == want {
			return
		}
		switch st.State {
		case server.JobDone, server.JobFailed, server.JobCanceled, server.JobInterrupted:
			t.Fatalf("job reached terminal state %q (error %q) before %q", st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never reached state %q", want)
}

// TestDrainInterruptsAndResumesByteIdentical is the acceptance test for
// graceful drain: SIGTERM-style Drain during an in-flight soak job
// checkpoints it (state interrupted, resumable); resubmitting the same
// parameters against the same data dir with resume=true completes it,
// and the final artifact is byte-identical to an uninterrupted golden
// run.
func TestDrainInterruptsAndResumesByteIdentical(t *testing.T) {
	sharedDir := t.TempDir()

	// Phase 1: start the job and drain the daemon mid-run.
	srv1, cl1 := startDaemon(t, sharedDir)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	job, err := cl1.Soak(ctx, soakParams("drainme.ckpt", false))
	if err != nil {
		t.Fatalf("submit soak: %v", err)
	}
	waitState(t, cl1, job.ID, server.JobRunning)
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st, err := cl1.Job(ctx, job.ID)
	if err != nil {
		t.Fatalf("post-drain status: %v", err)
	}
	if st.State != server.JobInterrupted || !st.Resumable {
		t.Fatalf("post-drain job = %+v, want interrupted and resumable", st)
	}

	// Phase 2: a fresh daemon on the same data dir resumes the job.
	_, cl2 := startDaemon(t, sharedDir)
	resumed := runToCompletion(t, cl2, soakParams("drainme.ckpt", true))
	if resumed.State != server.JobDone {
		t.Fatalf("resumed job = %q (error %q), want done", resumed.State, resumed.Error)
	}

	// Phase 3: golden uninterrupted run with identical parameters.
	_, cl3 := startDaemon(t, t.TempDir())
	golden := runToCompletion(t, cl3, soakParams("golden.ckpt", false))
	if golden.State != server.JobDone {
		t.Fatalf("golden job = %q (error %q), want done", golden.State, golden.Error)
	}

	if !bytes.Equal(resumed.Result, golden.Result) {
		t.Fatalf("resumed artifact differs from golden:\nresumed: %s\ngolden:  %s",
			resumed.Result, golden.Result)
	}
}

// TestEvaluateEndToEnd runs one real synchronous evaluation through the
// client.
func TestEvaluateEndToEnd(t *testing.T) {
	_, cl := startDaemon(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	resp, err := cl.Evaluate(ctx, server.EvaluateRequest{
		Workload: "casestudy", Structure: "ftspm", Scale: 0.05,
	})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if resp.Run.Cycles == 0 || resp.Run.Accesses == 0 {
		t.Fatalf("empty evaluation result: %+v", resp.Run)
	}
}
