package fabric

import (
	"errors"
	"sync"

	"ftspm/internal/campaign"
	"ftspm/internal/fabric/wire"
)

// errSuspectOrigin rejects a merge from a worker that has been convicted
// of returning divergent results. The placement loop treats it as a
// stream abort, not a fatal error: the un-acked jobs re-queue onto
// trustworthy executors.
var errSuspectOrigin = errors.New("fabric: result from convicted worker")

// merger folds streamed job results — from any worker stream or the
// local fallback runner, concurrently — into the campaign's ledger,
// which journals each result before it counts and keeps the first
// durable result of each job, so a job is acked (and never re-placed)
// only once its result is durable.
//
// For the integrity layer the merger keeps provenance: which worker
// produced each merged result ("" for local execution, which is
// trusted by definition), which results an audit re-execution has
// confirmed, and which workers have been convicted. Conviction revokes
// every unconfirmed result of that worker through the ledger, journal
// tombstone first.
type merger struct {
	mu  sync.Mutex
	led *campaign.Ledger
	// origin maps live-merged job IDs to the worker URL that produced
	// them ("" = local fallback). Resumed results have no origin and are
	// never revoked.
	origin map[string]string
	// passed marks results confirmed by audit re-execution; a conviction
	// of their origin does not revoke them.
	passed map[string]bool
	// convicted workers can no longer merge anything.
	convicted map[string]bool
}

func newMerger(led *campaign.Ledger) *merger {
	return &merger{
		led:       led,
		origin:    make(map[string]string),
		passed:    make(map[string]bool),
		convicted: make(map[string]bool),
	}
}

// add merges one result produced by origin (a worker URL, or "" for
// local execution). Duplicates — the same job streamed by two placements
// because a lease expired on a slow-but-alive worker — are dropped by
// the ledger: first durable result wins (merged=false, no error). A
// non-nil error means the result must not be acked: errSuspectOrigin if
// the producer was convicted mid-stream, otherwise the result could not
// be made durable (checkpoint append failed) and stays pending for a
// resumed run.
func (m *merger) add(res wire.JobResult, origin string) (merged bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.convicted[origin] {
		return false, errSuspectOrigin
	}
	merged, err = m.led.Add(res)
	if merged {
		m.origin[res.ID] = origin
	}
	return merged, err
}

// auditPass marks one merged result as confirmed by re-execution.
func (m *merger) auditPass(id string) {
	m.mu.Lock()
	m.passed[id] = true
	m.mu.Unlock()
}

// currentSum returns the value attestation sum of the currently-merged
// result for id ("" if none) — the audit's check that the result it
// re-executed is still the one in the report.
func (m *merger) currentSum(id string) string {
	res, ok := m.led.Result(id)
	if !ok {
		return ""
	}
	return campaign.SumBytes(res.Value)
}

// invalidateFrom convicts one worker: every result it produced that no
// audit has confirmed is revoked, and the revoked job IDs are returned
// for re-queueing. Idempotent: a second conviction of the same worker
// revokes nothing further. A journal error aborts mid-way; the IDs
// already revoked are still returned and the caller must fail the run
// (the journal is gone).
func (m *merger) invalidateFrom(url string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.convicted[url] = true
	var ids []string
	for id, o := range m.origin {
		if o != url || m.passed[id] {
			continue
		}
		if err := m.led.Revoke(id); err != nil {
			return ids, err
		}
		delete(m.origin, id)
		ids = append(ids, id)
	}
	return ids, nil
}
