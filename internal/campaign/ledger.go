package campaign

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Ledger records a campaign's finished jobs. It is the one place the
// recording rule lives, for every executor — Run's collector, and the
// distributed fabric coordinator merging streamed results:
//
//   - a result counts only once its journal record is appended and
//     fsynced (when the campaign is checkpointed);
//   - the first durable result of a job wins, later duplicates (the
//     same job streamed by two placements) are dropped;
//   - journaled results of the campaign's jobs seed the report on
//     resume;
//   - the first failed append ends the journal: an append whose write
//     fails partway leaves a partial line, and a record appended after
//     it would complete that line into one that resume refuses as
//     bitrot instead of truncating as a torn tail. Every later Add or
//     Revoke fails without writing.
//
// A Ledger is safe for concurrent use.
type Ledger struct {
	mu  sync.Mutex
	jl  *Journal // nil when the campaign is not checkpointed
	ids []string // dispatch order
	rep *Report
	err error // first failed append, sticky
}

// OpenLedger opens the ledger of a campaign whose jobs are ids, in
// dispatch order. With a non-empty path the journal is opened exactly
// as OpenJournal does, and the journaled results of ids seed the report
// as resumed; an empty path records in memory only, and resuming it is
// a usage error.
func OpenLedger(path, hash string, resume bool, ids []string) (*Ledger, error) {
	l := &Ledger{ids: ids, rep: &Report{Results: make(map[string]Result[json.RawMessage], len(ids))}}
	if path == "" {
		if resume {
			return nil, Usagef("campaign: resume requires a checkpoint path")
		}
		return l, nil
	}
	jl, done, err := OpenJournal(path, hash, resume)
	if err != nil {
		return nil, err
	}
	l.jl = jl
	for _, id := range ids {
		r, ok := done[id]
		if !ok {
			continue // journal entries for jobs not in this campaign
		}
		r.Resumed = true
		l.count(r, 1)
		l.rep.Resumed++
	}
	return l, nil
}

// Add records one finished job. It reports whether res was recorded: a
// job that already has a result keeps it, and the duplicate is dropped
// without error. A non-nil error means res is not durable — the journal
// append failed now or earlier — and the job stays pending.
func (l *Ledger) Add(res Result[json.RawMessage]) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return false, l.err
	}
	if _, dup := l.rep.Results[res.ID]; dup {
		return false, nil
	}
	if err := l.journal(res); err != nil {
		return false, err
	}
	l.count(res, 1)
	return true, nil
}

// Revoke drops the recorded result of id: the journal tombstone is
// fsynced first, so a crash in between cannot resurrect the result on
// resume. Revoking a job without a result does nothing.
func (l *Ledger) Revoke(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	res, ok := l.rep.Results[id]
	if !ok {
		return nil
	}
	if err := l.journal(Result[json.RawMessage]{ID: id, Status: StatusInvalidated}); err != nil {
		return err
	}
	l.count(res, -1)
	if res.Resumed {
		l.rep.Resumed--
	}
	return nil
}

// Result returns the recorded result of id.
func (l *Ledger) Result(id string) (Result[json.RawMessage], bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.rep.Results[id]
	return r, ok
}

// Close closes the journal and returns the report, whose PendingIDs
// are the jobs without a recorded result, in dispatch order. The error
// is the first failed append, else the journal's close error; the
// report is complete either way.
func (l *Ledger) Close() (*Report, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rep.PendingIDs = nil
	for _, id := range l.ids {
		if _, ok := l.rep.Results[id]; !ok {
			l.rep.PendingIDs = append(l.rep.PendingIDs, id)
		}
	}
	err := l.err
	if l.jl != nil {
		if cerr := l.jl.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return l.rep, fmt.Errorf("checkpoint: %w", err)
	}
	return l.rep, nil
}

// journal appends r to the journal, latching the first failure.
func (l *Ledger) journal(r Result[json.RawMessage]) error {
	if l.jl == nil {
		return nil
	}
	if err := l.jl.Append(r); err != nil {
		l.err = err
		return err
	}
	return nil
}

// count adds (n = 1) or removes (n = -1) r from the report.
func (l *Ledger) count(r Result[json.RawMessage], n int) {
	if n > 0 {
		l.rep.Results[r.ID] = r
	} else {
		delete(l.rep.Results, r.ID)
	}
	if r.Status == StatusFailed {
		l.rep.Failed += n
	} else {
		l.rep.Completed += n
	}
}
