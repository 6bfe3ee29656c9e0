package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"ftspm/internal/experiments"
	"ftspm/internal/fabric/chaostest"
)

// These tests run with a probe interval of an hour, so any path that
// waits for a probe tick instead of an event runs into the 60 s
// deadline and fails; the event-driven coordinator finishes each in
// seconds. None of them asserts on elapsed time: finishing
// before the deadline is the whole check.

// sweepGolden is the single-node reference a fabric sweep must match
// byte for byte.
func sweepGolden(t *testing.T, opts experiments.Options) []byte {
	t.Helper()
	sw, st, err := experiments.RunSweepCampaign(context.Background(), opts, experiments.CampaignConfig{})
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}
	if st.Incomplete || st.Failed != 0 {
		t.Fatalf("golden status unclean: %+v", st)
	}
	b, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runSweepBeforeDeadline runs a fabric sweep under a 60 s deadline and
// requires it to finish cleanly, before the deadline, byte-identical to
// want.
func runSweepBeforeDeadline(t *testing.T, cfg Config, opts experiments.Options, want []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sw, st, err := RunSweep(ctx, cfg, opts)
	if ctx.Err() != nil {
		t.Fatalf("campaign ran into the deadline (err %v): completion waited on a probe tick", err)
	}
	if err != nil {
		t.Fatalf("fabric sweep: %v", err)
	}
	if st.Incomplete || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("fabric status unclean: %+v", st)
	}
	got, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fabric sweep diverged from single-node golden:\n got %s\nwant %s", got, want)
	}
}

// Healthy workers: Run returns as soon as the last merge is durable,
// without waiting for any loop to finish a probe-interval sleep.
func TestRunCompletesWithoutWaitingForProbeTick(t *testing.T) {
	opts := experiments.Options{Scale: 0.02}
	want := sweepGolden(t, opts)
	w1, w2 := chaostest.New(t), chaostest.New(t)
	runSweepBeforeDeadline(t, Config{
		Workers:       []string{w1.URL(), w2.URL()},
		ProbeInterval: time.Hour,
		Logf:          t.Logf,
	}, opts, want)
	if w1.Placements()+w2.Placements() == 0 {
		t.Fatal("no placement reached a healthy worker")
	}
}

// All workers down: local fallback starts on the worker-down
// transition, whether the workers are down from the first probe or die
// mid-stream, and not on the next probe tick.
func TestLocalFallbackStartsOnAllDownTransition(t *testing.T) {
	opts := experiments.Options{Scale: 0.02}
	want := sweepGolden(t, opts)

	t.Run("down from the start", func(t *testing.T) {
		w := chaostest.New(t)
		w.SetDown(true)
		// A probe that retried its failed GET would send the down worker
		// several /healthz requests before the all-down transition; a
		// single-attempt probe sends one, so local fallback starts on the
		// first failure.
		var mu sync.Mutex
		probes := -1
		runSweepBeforeDeadline(t, Config{
			Workers:       []string{w.URL(), "http://127.0.0.1:1"},
			ProbeInterval: time.Hour,
			Logf: func(format string, args ...any) {
				mu.Lock()
				if probes < 0 && strings.Contains(format, "locally") {
					probes = w.Probes()
				}
				mu.Unlock()
				t.Logf(format, args...)
			},
		}, opts, want)
		if n := w.Placements(); n != 0 {
			t.Fatalf("down worker accepted %d placements", n)
		}
		mu.Lock()
		defer mu.Unlock()
		if probes != 1 {
			t.Fatalf("down worker saw %d probes before local fallback started, want 1: the probe retried", probes)
		}
	})

	t.Run("killed mid-stream", func(t *testing.T) {
		w := chaostest.New(t)
		w.SetScript(chaostest.Script{KillAfterLines: 1, HangAfterLines: chaostest.Off, StayDown: true})
		runSweepBeforeDeadline(t, Config{
			Workers:       []string{w.URL()},
			ProbeInterval: time.Hour,
			Logf:          t.Logf,
		}, opts, want)
		if n := w.Placements(); n != 1 {
			t.Fatalf("worker took %d placements, want 1: a dead worker is not re-probed within the hour", n)
		}
	})
}
