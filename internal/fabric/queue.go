package fabric

import "sync"

// queue is the coordinator's shared work list: every job ID of the
// campaign that still needs a durable result. Worker loops pop chunks,
// stream them to their daemon, and ack each job as its result is
// merged; a placement that dies gives its un-acked jobs back via
// requeue. The queue closes when every job is done or quarantined,
// when a fatal error is recorded, or when the run is canceled —
// blocked poppers wake and exit either way, and done is closed so
// loops waiting on anything else wake too.
type jobState struct {
	// placements counts started-then-lost placements: streams that
	// opened and then died with this job still outstanding. Jobs with a
	// burned placement are suspects — placed alone so a poison job can
	// only take itself down — and quarantined once they burn
	// maxPlacements.
	placements  int
	done        bool
	quarantined bool
	// key is the job's set-up key (experiments.JobSource.SetupKey):
	// jobs sharing it share one set-up on the worker that runs them
	// together.
	key string
}

type queue struct {
	mu            sync.Mutex
	cond          *sync.Cond
	pending       []string
	st            map[string]*jobState
	remaining     int
	maxPlacements int
	closed        bool
	// done is closed exactly once, when closed turns true: the wake
	// signal for loops that wait on other events besides the queue.
	done chan struct{}
	// ready holds one token whenever jobs have gone back to pending
	// (requeue, reopen) since the last receive; the local fallback
	// loop waits on it rather than polling.
	ready       chan struct{}
	err         error
	quarantined []string
	// audits counts in-flight audit re-executions. The queue refuses to
	// close on remaining==0 while audits are outstanding: an audit can
	// still convict a worker and reopen its jobs, so "every job acked"
	// is not yet "the campaign is done".
	audits int
}

// newQueue queues ids grouped by key: each set-up group sits whole at
// the position of its first job, so a chunk popped off the head holds
// as few groups as possible.
func newQueue(ids []string, key func(id string) string, maxPlacements int) *queue {
	q := &queue{
		pending:       make([]string, 0, len(ids)),
		st:            make(map[string]*jobState, len(ids)),
		remaining:     len(ids),
		maxPlacements: maxPlacements,
		done:          make(chan struct{}),
		ready:         make(chan struct{}, 1),
	}
	var order []string
	groups := make(map[string][]string)
	for _, id := range ids {
		k := key(id)
		q.st[id] = &jobState{key: k}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], id)
	}
	for _, k := range order {
		q.pending = append(q.pending, groups[k]...)
	}
	q.cond = sync.NewCond(&q.mu)
	if len(ids) == 0 {
		q.closeLocked()
	}
	return q
}

// closeLocked is the one way the queue closes: it wakes blocked
// poppers and closes done, once, whichever path got here first.
func (q *queue) closeLocked() {
	if q.closed {
		return
	}
	q.closed = true
	close(q.done)
	q.cond.Broadcast()
}

// closeIfSettledLocked closes the queue once no job is left and no
// audit can reopen one.
func (q *queue) closeIfSettledLocked() {
	if q.remaining == 0 && q.audits == 0 {
		q.closeLocked()
	}
}

// kick leaves a token on a one-slot event channel without blocking: a
// token already waiting covers this event too, so a single waiter that
// checks its state and then receives never misses a change.
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pop blocks until work is available — returning a chunk of up to max
// job IDs — or the queue closes (ok=false). A suspect job is returned
// alone, and never shares a chunk with clean jobs.
func (q *queue) pop(max int) ([]string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && len(q.pending) == 0 {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	return q.popLocked(max), true
}

// tryPop is pop without blocking.
func (q *queue) tryPop(max int) ([]string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.pending) == 0 {
		return nil, false
	}
	return q.popLocked(max), true
}

// popLocked takes the head job's set-up group (the run of clean
// pending jobs sharing its key), split only at max, then whole
// following groups while they fit. A suspect head is taken alone.
func (q *queue) popLocked(max int) []string {
	if max < 1 {
		max = 1
	}
	take := 1
	if q.st[q.pending[0]].placements == 0 {
		take = q.groupEnd(0, max)
		for take < max && take < len(q.pending) {
			end := q.groupEnd(take, max-take+1)
			if end == take || end-take > max-take {
				break // a suspect, or a group that does not fit whole
			}
			take = end
		}
	}
	chunk := make([]string, take)
	copy(chunk, q.pending[:take])
	q.pending = q.pending[take:]
	return chunk
}

// groupEnd returns the end of the run of clean pending jobs that starts
// at i and shares pending[i]'s key, looking at most limit jobs ahead.
// A suspect at i ends the run at i.
func (q *queue) groupEnd(i, limit int) int {
	first := q.st[q.pending[i]]
	j := i
	for j < len(q.pending) && j-i < limit {
		s := q.st[q.pending[j]]
		if s.placements != 0 || s.key != first.key {
			break
		}
		j++
	}
	return j
}

// ack marks one job durably merged. Idempotent — the merger dedups, so
// a duplicate stream line acks a job that is already done.
func (q *queue) ack(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	s, ok := q.st[id]
	if !ok || s.done {
		return
	}
	s.done = true
	q.remaining--
	q.closeIfSettledLocked()
}

// beginAudit registers one in-flight audit re-execution. It must be
// called BEFORE the audited job is acked, so the queue cannot observe
// remaining==0 with the audit unaccounted and close under it.
func (q *queue) beginAudit() {
	q.mu.Lock()
	q.audits++
	q.mu.Unlock()
}

// endAudit settles one audit; the last settled audit with no work left
// closes the queue.
func (q *queue) endAudit() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.audits--
	q.closeIfSettledLocked()
}

// reopen puts convicted-and-invalidated jobs back on the queue: their
// merged results were revoked, so they are no longer done. Only called
// from an audit still holding its beginAudit slot, which is what
// guarantees the queue has not closed; a queue closed by cancellation
// or a fatal error stays closed.
func (q *queue) reopen(ids []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	n := len(q.pending)
	for _, id := range ids {
		s, ok := q.st[id]
		if !ok || !s.done {
			continue
		}
		s.done = false
		q.remaining++
		q.pending = append(q.pending, id)
	}
	q.cond.Broadcast()
	if len(q.pending) > n {
		kick(q.ready)
	}
}

// requeue gives a dead placement's un-acked jobs back. penalize marks
// the placement as started-then-lost: each job burns one placement and
// is quarantined once maxPlacements are burned. Placements that never
// started (connection refused, shed) requeue without penalty — the
// fault was the worker's, not possibly the job's.
func (q *queue) requeue(ids []string, penalize bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.pending)
	for _, id := range ids {
		s, ok := q.st[id]
		if !ok || s.done || s.quarantined {
			continue
		}
		if penalize {
			s.placements++
			if s.placements >= q.maxPlacements {
				s.quarantined = true
				q.quarantined = append(q.quarantined, id)
				q.remaining--
				continue
			}
		}
		q.pending = append(q.pending, id)
	}
	q.closeIfSettledLocked()
	q.cond.Broadcast()
	if len(q.pending) > n {
		kick(q.ready)
	}
}

// fail records a fatal error (first one wins) and closes the queue.
func (q *queue) fail(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err == nil {
		q.err = err
	}
	q.closeLocked()
}

// close shuts the queue for cancellation; pending jobs stay unfinished.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closeLocked()
}

func (q *queue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

func (q *queue) failure() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

func (q *queue) quarantinedIDs() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]string(nil), q.quarantined...)
}
