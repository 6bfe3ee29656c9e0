package fabric

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// oneGroup puts every job in one set-up group, so chunks fill to the
// cap in queue order.
func oneGroup(string) string { return "" }

// byPrefix keys a job "k/n" by k.
func byPrefix(id string) string {
	k, _, _ := strings.Cut(id, "/")
	return k
}

// popAll pops chunks of up to max until nothing is pending, acking
// every job.
func popAll(t *testing.T, q *queue, max int) [][]string {
	t.Helper()
	var chunks [][]string
	for {
		chunk, ok := q.tryPop(max)
		if !ok {
			return chunks
		}
		for _, id := range chunk {
			q.ack(id)
		}
		chunks = append(chunks, chunk)
	}
}

// A group no larger than the cap is placed whole, in one chunk, even
// when its jobs are interleaved with other groups' (the sweep lists
// jobs structure-major, so a workload's jobs are a suite apart).
func TestQueueNeverSplitsSmallGroup(t *testing.T) {
	q := newQueue([]string{"x/1", "y/1", "z/1", "x/2", "y/2", "z/2", "x/3", "y/3", "z/3"}, byPrefix, 3)
	got := popAll(t, q, 4)
	want := [][]string{{"x/1", "x/2", "x/3"}, {"y/1", "y/2", "y/3"}, {"z/1", "z/2", "z/3"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
}

// After the head group, a chunk takes following groups only whole, and
// only while they fit under the cap.
func TestQueuePacksWholeFollowingGroups(t *testing.T) {
	q := newQueue([]string{"a/1", "a/2", "b/1", "b/2", "c/1", "c/2", "c/3", "d/1"}, byPrefix, 3)
	got := popAll(t, q, 5)
	want := [][]string{{"a/1", "a/2", "b/1", "b/2"}, {"c/1", "c/2", "c/3", "d/1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
}

// A group larger than the cap splits only at cap boundaries; its tail
// piece may then take whole following groups that fit.
func TestQueueSplitsLargeGroupAtCap(t *testing.T) {
	q := newQueue([]string{"a/1", "a/2", "a/3", "a/4", "a/5", "a/6", "a/7", "b/1", "b/2", "c/1", "c/2", "c/3"}, byPrefix, 3)
	got := popAll(t, q, 3)
	want := [][]string{{"a/1", "a/2", "a/3"}, {"a/4", "a/5", "a/6"}, {"a/7", "b/1", "b/2"}, {"c/1", "c/2", "c/3"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
}

// Set-up grouping never packs a suspect with anything: a suspect at the
// head is popped alone, and one behind a clean group ends that chunk.
func TestQueueGroupedSuspectsArePlacedAlone(t *testing.T) {
	q := newQueue([]string{"a/1", "a/2", "b/1"}, byPrefix, 3)
	chunk, _ := q.pop(2)
	if !reflect.DeepEqual(chunk, []string{"a/1", "a/2"}) {
		t.Fatalf("first pop = %v", chunk)
	}
	q.requeue(chunk, true) // pending: b/1, then suspects a/1, a/2
	got := popAll(t, q, 4)
	want := [][]string{{"b/1"}, {"a/1"}, {"a/2"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
}

// Requeued (penalty-free) and reopened jobs go back to pending and are
// popped again, still packed by group.
func TestQueueGroupedRequeueAndReopenArePopped(t *testing.T) {
	q := newQueue([]string{"a/1", "b/1", "a/2", "b/2"}, byPrefix, 3)
	chunk, _ := q.pop(2) // a/1, a/2
	q.ack("a/1")
	q.requeue(chunk, false) // a/2 goes back behind group b
	got := popAll(t, q, 4)
	want := [][]string{{"b/1", "b/2", "a/2"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks after requeue = %v, want %v", got, want)
	}

	q = newQueue([]string{"a/1", "a/2"}, byPrefix, 3)
	q.beginAudit() // an audit holds the queue open so it can reopen
	popAll(t, q, 2)
	q.reopen([]string{"a/1", "a/2"})
	got = popAll(t, q, 2)
	if want := [][]string{{"a/1", "a/2"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks after reopen = %v, want %v", got, want)
	}
	q.endAudit()
	if !q.isClosed() {
		t.Fatal("queue still open after reopened jobs were acked and the audit settled")
	}
}

func TestQueueSuspectsArePlacedAlone(t *testing.T) {
	q := newQueue([]string{"a", "b", "c", "d"}, oneGroup, 3)
	chunk, ok := q.pop(4)
	if !ok || len(chunk) != 4 {
		t.Fatalf("pop = %v, %v", chunk, ok)
	}
	// The placement started and died: every job burns a placement and
	// becomes a suspect.
	q.requeue(chunk, true)
	for i := 0; i < 4; i++ {
		chunk, ok = q.pop(4)
		if !ok || len(chunk) != 1 {
			t.Fatalf("suspect pop %d = %v, want a solo chunk", i, chunk)
		}
		q.ack(chunk[0])
	}
	if _, ok := q.pop(4); ok {
		t.Fatal("queue did not close after all jobs acked")
	}
}

func TestQueueQuarantineAfterMaxPlacements(t *testing.T) {
	q := newQueue([]string{"poison", "fine"}, oneGroup, 2)
	chunk, _ := q.pop(1) // "poison"
	q.requeue(chunk, true)
	if got := q.quarantinedIDs(); len(got) != 0 {
		t.Fatalf("quarantined after one lost placement: %v", got)
	}
	chunk2, _ := q.pop(1) // "fine" (suspect "poison" went to the back)
	q.ack(chunk2[0])
	chunk, _ = q.pop(1) // "poison" again, solo
	q.requeue(chunk, true)
	if got := q.quarantinedIDs(); !reflect.DeepEqual(got, []string{"poison"}) {
		t.Fatalf("quarantined = %v, want [poison]", got)
	}
	// Quarantine of the last live job closes the queue.
	if _, ok := q.pop(1); ok {
		t.Fatal("queue still open after last job quarantined")
	}
	// A quarantined job never comes back, even if re-queued again.
	q.requeue([]string{"poison"}, true)
	if _, ok := q.tryPop(1); ok {
		t.Fatal("quarantined job re-entered the queue")
	}
}

func TestQueueRequeueSkipsAckedJobs(t *testing.T) {
	q := newQueue([]string{"a", "b"}, oneGroup, 3)
	chunk, _ := q.pop(2)
	q.ack("a")
	q.requeue(chunk, false) // worker died; "a" already merged
	got, ok := q.tryPop(2)
	if !ok || !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("tryPop = %v, %v, want [b]", got, ok)
	}
}

func TestQueuePopWakesOnCloseAndFail(t *testing.T) {
	q := newQueue([]string{"a"}, oneGroup, 3)
	if _, ok := q.pop(1); !ok {
		t.Fatal("pop of live queue failed")
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := q.pop(1) // blocks: nothing pending, "a" leased
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.fail(errLeaseExpired)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop returned work from a failed queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not wake on fail")
	}
	if q.failure() == nil {
		t.Fatal("failure not recorded")
	}
}

// Every way the queue can close must close done exactly once and wake
// every waiter: loops asleep on done and poppers blocked in pop alike.
// Closing again by any path afterwards must neither panic (a second
// close of done) nor reopen anything.
func TestQueueDoneClosesOnceOnEveryClosePath(t *testing.T) {
	cases := []struct {
		name string
		// setup leaves a live queue with nothing pending, so pop blocks;
		// nil means an empty queue, closed at construction.
		setup func() *queue
		// shut is the one call that closes it.
		shut func(q *queue)
	}{
		{"ack to zero", leasedQueue, func(q *queue) { q.ack("a") }},
		{"endAudit", func() *queue {
			q := leasedQueue()
			q.beginAudit()
			q.ack("a") // every job acked, but the audit holds the queue open
			return q
		}, func(q *queue) { q.endAudit() }},
		{"quarantining requeue", func() *queue {
			q := newQueue([]string{"a"}, oneGroup, 1)
			q.pop(1)
			return q
		}, func(q *queue) { q.requeue([]string{"a"}, true) }},
		{"fail", leasedQueue, func(q *queue) { q.fail(errLeaseExpired) }},
		{"close", leasedQueue, func(q *queue) { q.close() }},
		{"empty newQueue", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newQueue(nil, oneGroup, 3)
			if tc.setup != nil {
				q = tc.setup()
				if isDone(q) {
					t.Fatal("done closed before the closing call")
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(2)
				go func() { defer wg.Done(); <-q.done }()
				go func() {
					defer wg.Done()
					if _, ok := q.pop(1); ok {
						t.Error("pop returned work from a closed queue")
					}
				}()
			}
			if tc.shut != nil {
				tc.shut(q)
			}
			waitOrFail(t, &wg, "a waiter was left asleep after the queue closed")
			if !isDone(q) || !q.isClosed() {
				t.Fatal("queue not closed")
			}
			// Every close path again, in any order: none may panic.
			q.close()
			q.fail(errLeaseExpired)
			q.ack("a")
			q.requeue([]string{"a"}, true)
			q.beginAudit()
			q.endAudit()
			q.reopen([]string{"a"})
			if _, ok := q.tryPop(1); ok {
				t.Fatal("a closed queue handed out work")
			}
		})
	}
}

// ready carries one token per burst of jobs going back to pending, so
// the local fallback loop wakes on requeue and reopen, not on a timer.
func TestQueueReadySignalsPendingJobs(t *testing.T) {
	q := newQueue([]string{"a", "b"}, oneGroup, 3)
	chunk, _ := q.pop(2)
	if isReady(q) {
		t.Fatal("ready signaled before any job went back to pending")
	}
	q.ack("a")
	q.requeue(chunk, false) // "b" goes back; "a" is done
	if !isReady(q) {
		t.Fatal("requeue of an unfinished job did not signal ready")
	}
	if isReady(q) {
		t.Fatal("one requeue left two tokens")
	}
	q.requeue([]string{"a"}, false)
	if isReady(q) {
		t.Fatal("requeue of a done job signaled ready")
	}
	q.beginAudit()
	q.tryPop(1)
	q.ack("b")
	q.reopen([]string{"a"})
	if !isReady(q) {
		t.Fatal("reopen did not signal ready")
	}
}

// leasedQueue returns a one-job queue whose job is out on a placement.
func leasedQueue() *queue {
	q := newQueue([]string{"a"}, oneGroup, 3)
	q.pop(1)
	return q
}

func isDone(q *queue) bool {
	select {
	case <-q.done:
		return true
	default:
		return false
	}
}

func isReady(q *queue) bool {
	select {
	case <-q.ready:
		return true
	default:
		return false
	}
}

// waitOrFail waits for wg, failing rather than hanging the test binary
// if a waiter never wakes.
func waitOrFail(t *testing.T, wg *sync.WaitGroup, msg string) {
	t.Helper()
	woke := make(chan struct{})
	go func() { wg.Wait(); close(woke) }()
	select {
	case <-woke:
	case <-time.After(10 * time.Second):
		t.Fatal(msg)
	}
}
