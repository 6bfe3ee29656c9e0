package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric/wire"
	"ftspm/internal/server"
	"ftspm/internal/server/client"
)

// streamWorker builds a fake /v1/fabric worker that streams exactly the
// given lines, and the coordinator-side plumbing pointed at it.
func streamWorker(t *testing.T, lines []wire.Line) (*fabricRun, *workerRef) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	cl, err := client.New(client.Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: []string{srv.URL}}.withDefaults()
	f := &fabricRun{
		cfg:      cfg,
		q:        newQueue([]string{"good"}, oneGroup, cfg.MaxPlacements),
		m:        newMerger(memLedger(t, "good")),
		fp:       cfg.Fingerprint,
		suspects: make(map[string]bool),
	}
	w := &workerRef{url: srv.URL, cl: cl, brk: server.NewBreaker(cfg.Breaker, nil)}
	f.workers = []*workerRef{w}
	return f, w
}

// memLedger opens an in-memory ledger over ids.
func memLedger(t *testing.T, ids ...string) *campaign.Ledger {
	t.Helper()
	led, err := campaign.OpenLedger("", "", false, ids)
	if err != nil {
		t.Fatal(err)
	}
	return led
}

// merged closes the merger's ledger and returns the merged results.
func merged(t *testing.T, m *merger) map[string]campaign.Result[json.RawMessage] {
	t.Helper()
	rep, err := m.led.Close()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Results
}

// attested wraps a result in a correctly-attested stream line.
func attested(t *testing.T, res wire.JobResult) wire.Line {
	t.Helper()
	sum, _, err := campaign.SumResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Line{Result: &res, Sum: sum, Fp: wire.Fingerprint()}
}

func doneResult(id string) wire.JobResult {
	return wire.JobResult{ID: id, Status: campaign.StatusDone, Attempts: 1,
		Value: json.RawMessage(`42`)}
}

// Satellite: a result whose job ID was never placed on this worker must
// not merge — previously it was only deduplicated, which let any worker
// write any job in the campaign.
func TestPlaceRejectsUnplacedJobID(t *testing.T) {
	f, w := streamWorker(t, []wire.Line{
		attested(t, doneResult("evil")),
		{Done: &wire.Trailer{Completed: 1}},
	})
	chunk, ok := f.q.tryPop(8)
	if !ok {
		t.Fatal("queue empty")
	}
	f.place(context.Background(), w, chunk)

	if rs := merged(t, f.m); len(rs) != 0 {
		t.Fatalf("unplaced result merged: %+v", rs)
	}
	if !w.isDown() {
		t.Fatal("worker not marked down after protocol violation")
	}
	// The placed job must be back on the queue, without a placement
	// penalty.
	requeued, rok := f.q.tryPop(8)
	if !rok || len(requeued) != 1 || requeued[0] != "good" {
		t.Fatalf("placed job not re-queued: %v ok=%v", requeued, rok)
	}
	if f.q.st["good"].placements != 0 {
		t.Fatalf("protocol violation penalized the job: %d placements", f.q.st["good"].placements)
	}
}

// A result whose payload does not hash to its attestation sum is a
// transport-grade failure: re-queue, never merge.
func TestPlaceRejectsAttestationMismatch(t *testing.T) {
	res := doneResult("good")
	line := attested(t, res)
	// Corrupt the payload after the sum was computed — a wire-level bit
	// flip with a stale checksum.
	flipped := doneResult("good")
	flipped.Value = json.RawMessage(`43`)
	line.Result = &flipped

	f, w := streamWorker(t, []wire.Line{line, {Done: &wire.Trailer{Completed: 1}}})
	chunk, ok := f.q.tryPop(8)
	if !ok {
		t.Fatal("queue empty")
	}
	f.place(context.Background(), w, chunk)

	if rs := merged(t, f.m); len(rs) != 0 {
		t.Fatalf("corrupt result merged: %+v", rs)
	}
	if !w.isDown() {
		t.Fatal("worker not marked down after attestation failure")
	}
	if requeued, rok := f.q.tryPop(8); !rok || len(requeued) != 1 || requeued[0] != "good" {
		t.Fatalf("job not re-queued after attestation failure: %v ok=%v", requeued, rok)
	}
}

// A result stamped with a foreign build fingerprint must not merge even
// when its sum checks out.
func TestPlaceRejectsFingerprintMismatch(t *testing.T) {
	line := attested(t, doneResult("good"))
	line.Fp = "fp-deadbeef"
	f, w := streamWorker(t, []wire.Line{line, {Done: &wire.Trailer{Completed: 1}}})
	chunk, ok := f.q.tryPop(8)
	if !ok {
		t.Fatal("queue empty")
	}
	f.place(context.Background(), w, chunk)

	if rs := merged(t, f.m); len(rs) != 0 {
		t.Fatalf("foreign-fingerprint result merged: %+v", rs)
	}
	if requeued, rok := f.q.tryPop(8); !rok || len(requeued) != 1 || requeued[0] != "good" {
		t.Fatalf("job not re-queued: %v ok=%v", requeued, rok)
	}
}

// A well-attested stream merges and acks normally — the verification
// layer must not get in the honest path's way.
func TestPlaceAcceptsAttestedResult(t *testing.T) {
	f, w := streamWorker(t, []wire.Line{
		attested(t, doneResult("good")),
		{Done: &wire.Trailer{Completed: 1}},
	})
	chunk, ok := f.q.tryPop(8)
	if !ok {
		t.Fatal("queue empty")
	}
	f.place(context.Background(), w, chunk)

	if rs := merged(t, f.m); rs["good"].Status != campaign.StatusDone {
		t.Fatalf("attested result did not merge: %+v", rs)
	}
	if !f.q.isClosed() {
		t.Fatal("queue should close once the only job is acked")
	}
}

// The queue must not close on remaining==0 while audits are in flight,
// and reopened (invalidated) jobs must be poppable again.
func TestQueueAuditHoldsCloseAndReopens(t *testing.T) {
	q := newQueue([]string{"a"}, oneGroup, 3)
	if chunk, ok := q.tryPop(4); !ok || len(chunk) != 1 {
		t.Fatalf("pop: %v ok=%v", chunk, ok)
	}
	q.beginAudit()
	q.ack("a")
	if q.isClosed() {
		t.Fatal("queue closed with an audit outstanding")
	}
	q.reopen([]string{"a"})
	chunk, ok := q.tryPop(4)
	if !ok || len(chunk) != 1 || chunk[0] != "a" {
		t.Fatalf("reopened job not poppable: %v ok=%v", chunk, ok)
	}
	q.ack("a")
	q.endAudit()
	if !q.isClosed() {
		t.Fatal("queue should close once the audit settles and no work remains")
	}
}

// Audit selection is deterministic and tracks the configured fraction.
func TestAuditPickDeterministicFraction(t *testing.T) {
	mk := func(frac float64, seed int64) *fabricRun {
		return &fabricRun{
			cfg: Config{AuditFrac: frac, AuditSeed: seed},
			src: &experiments.JobSource{Hash: "cafebabe"},
		}
	}
	a, b := mk(0.25, 7), mk(0.25, 7)
	picked := 0
	for i := 0; i < 2000; i++ {
		id := "job/" + string(rune('a'+i%26)) + "/" + time.Duration(i).String()
		if a.auditPick(id) != b.auditPick(id) {
			t.Fatalf("audit selection not deterministic for %q", id)
		}
		if a.auditPick(id) {
			picked++
		}
	}
	if picked < 350 || picked > 650 {
		t.Fatalf("picked %d of 2000 at frac 0.25, want ~500", picked)
	}
	if !mk(1, 0).auditPick("x") {
		t.Fatal("frac 1 must pick everything")
	}
	if mk(0, 0).auditPick("x") {
		t.Fatal("frac 0 must pick nothing")
	}
}

// Conviction revokes exactly the convicted worker's unaudited results:
// audit-passed results and other workers' results survive.
func TestInvalidateFromScopesToConvictedWorker(t *testing.T) {
	m := newMerger(memLedger(t, "a", "b", "c", "d", "e"))
	for _, tc := range []struct{ id, origin string }{
		{"a", "w1"}, {"b", "w1"}, {"c", "w2"}, {"d", ""},
	} {
		if _, err := m.add(doneResult(tc.id), tc.origin); err != nil {
			t.Fatal(err)
		}
	}
	m.auditPass("a")

	ids, err := m.invalidateFrom("w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "b" {
		t.Fatalf("invalidated %v, want [b] only", ids)
	}
	// And the convicted worker can no longer merge anything.
	if _, err := m.add(doneResult("e"), "w1"); err != errSuspectOrigin {
		t.Fatalf("post-conviction merge err = %v, want errSuspectOrigin", err)
	}
	rep, err := m.led.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 {
		t.Fatalf("completed %d after revocation, want 3", rep.Completed)
	}
	for _, id := range []string{"a", "c", "d"} {
		if _, ok := rep.Results[id]; !ok {
			t.Fatalf("result %s wrongly revoked", id)
		}
	}
}
