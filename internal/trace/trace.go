// Package trace defines the memory-access trace model that connects the
// workload generators to the profiler and the simulator. A trace is a
// deterministic stream of events: word-granularity memory accesses
// annotated with preceding compute ("think") cycles, plus call/return
// markers that let the profiler reconstruct the stack statistics of
// Table I. Traces can be streamed from a generator, materialized in a
// slice, or serialized to a line-oriented text format for record/replay.
package trace

import (
	"fmt"
)

// Op is the direction of a memory access.
type Op uint8

// Access directions.
const (
	Read Op = iota + 1
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Valid reports whether o is a known op.
func (o Op) Valid() bool { return o == Read || o == Write }

// Space distinguishes instruction fetches from data accesses; the paper's
// platform has separate instruction and data SPMs (Table IV).
type Space uint8

// Address spaces.
const (
	Code Space = iota + 1
	Data
)

// String implements fmt.Stringer.
func (s Space) String() string {
	switch s {
	case Code:
		return "code"
	case Data:
		return "data"
	default:
		return fmt.Sprintf("Space(%d)", int(s))
	}
}

// Valid reports whether s is a known space.
func (s Space) Valid() bool { return s == Code || s == Data }

// Access is one word-granularity memory reference. Fields are ordered
// widest first so the struct packs into 16 bytes.
type Access struct {
	// Addr is the (virtual, off-chip image) byte address touched.
	Addr uint32
	// Size is the number of bytes touched, at least 1.
	Size int32
	// Think is the number of pure-compute cycles the core spends before
	// issuing this access; it models the non-memory instructions between
	// references.
	Think int32
	// Op is the direction.
	Op Op
	// Space selects the instruction or data side of the hierarchy.
	Space Space
}

// Kind discriminates trace events.
type Kind uint8

// Event kinds.
const (
	// KindAccess is a memory access.
	KindAccess Kind = iota + 1
	// KindCall marks a function call pushing StackBytes onto the stack.
	KindCall
	// KindReturn marks a function return popping the most recent frame.
	KindReturn
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindAccess:
		return "access"
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one element of a trace. It is 24 bytes: the 16-byte Access,
// the 4-byte frame size and the 1-byte kind, padded to 4-byte alignment.
// Materialized traces hold millions of events, so the layout is the
// dominant term of a sweep's memory.
type Event struct {
	// Access is valid when Kind == KindAccess.
	Access Access
	// StackBytes is valid when Kind == KindCall: the callee frame size.
	StackBytes int32
	// Kind discriminates which fields are meaningful.
	Kind Kind
}

// AccessEvent wraps an access as an event.
func AccessEvent(a Access) Event { return Event{Kind: KindAccess, Access: a} }

// CallEvent returns a call marker with the given frame size.
func CallEvent(frameBytes int32) Event {
	return Event{Kind: KindCall, StackBytes: frameBytes}
}

// ReturnEvent returns a return marker.
func ReturnEvent() Event { return Event{Kind: KindReturn} }

// Stream produces trace events in order. Next returns ok=false when the
// trace is exhausted. Implementations must be deterministic for a given
// construction so a trace can be replayed by rebuilding the stream.
type Stream interface {
	Next() (Event, bool)
}

// BatchLen is the most events one ReadBatch call hands out: 6 KB of
// events, small enough to stay in a core's L1 cache while consumed.
const BatchLen = 256

// BatchReader is implemented by streams that hand out events in bulk
// more cheaply than one Next call per event. ReadBatch returns the next
// events, at most len(buf) of them, in buf or in a window of the
// stream's own storage; it returns fewer than len(buf) only once the
// stream is exhausted, and an empty result after that.
type BatchReader interface {
	ReadBatch(buf []Event) []Event
}

// ReadBatch returns the next events of s, at most len(buf) of them; an
// empty result means s is exhausted. A BatchReader hands out its own
// batch (a SliceStream a window of its slice, with no copy); any other
// stream fills buf through Next. The result is valid until the next
// read from s and must not be modified: it may alias a trace that other
// streams share. This is the one batched read of the package; the
// simulator and the profiler consume every trace through it.
func ReadBatch(s Stream, buf []Event) []Event {
	if b, ok := s.(BatchReader); ok {
		return b.ReadBatch(buf)
	}
	n := 0
	for n < len(buf) {
		e, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = e
		n++
	}
	return buf[:n]
}

// SliceStream streams a materialized trace.
type SliceStream struct {
	events []Event
	pos    int
}

var (
	_ Stream      = (*SliceStream)(nil)
	_ BatchReader = (*SliceStream)(nil)
)

// NewSliceStream returns a stream over a copy of events (the slice is
// copied so later mutation by the caller cannot corrupt the stream).
func NewSliceStream(events []Event) *SliceStream {
	cp := make([]Event, len(events))
	copy(cp, events)
	return &SliceStream{events: cp}
}

// Replay returns a SliceStream that reads events in place, without
// copying. The caller promises the slice is never mutated afterwards;
// under that contract any number of Replay streams (including
// concurrent ones, each owning its own cursor) can share one backing
// array — the mechanism behind the soak engine's shared trace.
func Replay(events []Event) *SliceStream {
	return &SliceStream{events: events}
}

// Next implements Stream.
func (s *SliceStream) Next() (Event, bool) {
	if s.pos >= len(s.events) {
		return Event{}, false
	}
	e := s.events[s.pos]
	s.pos++
	return e, true
}

// ReadBatch implements BatchReader: it returns a window of the
// underlying slice, without copying.
func (s *SliceStream) ReadBatch(buf []Event) []Event {
	n := min(len(buf), len(s.events)-s.pos)
	w := s.events[s.pos : s.pos+n : s.pos+n]
	s.pos += n
	return w
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of events in the stream.
func (s *SliceStream) Len() int { return len(s.events) }

// CountingStream wraps a Stream and counts the events it yields —
// the streaming substitute for SliceStream.Len when the trace is never
// materialized.
type CountingStream struct {
	// S is the wrapped stream.
	S Stream
	// N is the number of events yielded so far.
	N int
}

var (
	_ Stream      = (*CountingStream)(nil)
	_ BatchReader = (*CountingStream)(nil)
)

// Next implements Stream.
func (c *CountingStream) Next() (Event, bool) {
	e, ok := c.S.Next()
	if ok {
		c.N++
	}
	return e, ok
}

// ReadBatch implements BatchReader, counting the events of each batch.
func (c *CountingStream) ReadBatch(buf []Event) []Event {
	b := ReadBatch(c.S, buf)
	c.N += len(b)
	return b
}

// Collect drains a stream into a slice, up to max events (max <= 0 means
// unbounded).
func Collect(s Stream, max int) []Event {
	var out []Event
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		e, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// Stats summarizes a trace.
type Stats struct {
	// Events is the total event count, all kinds.
	Events int
	// Reads and Writes count accesses by direction.
	Reads, Writes int
	// CodeAccesses and DataAccesses count accesses by space.
	CodeAccesses, DataAccesses int
	// ThinkCycles is the total compute-cycle count.
	ThinkCycles int
	// Calls and Returns count stack markers.
	Calls, Returns int
	// MaxStackBytes is the high-water mark of the call-stack depth in
	// bytes.
	MaxStackBytes int
	// BytesRead and BytesWritten total the access sizes by direction.
	BytesRead, BytesWritten int
}

// Accesses returns the total number of memory accesses.
func (s Stats) Accesses() int { return s.Reads + s.Writes }

// observe folds one event into the counters (stack depth is tracked by
// Summarize, which owns the frame bookkeeping).
func (s *Stats) observe(e Event) {
	s.Events++
	switch e.Kind {
	case KindAccess:
		a := e.Access
		if a.Op == Read {
			s.Reads++
			s.BytesRead += int(a.Size)
		} else {
			s.Writes++
			s.BytesWritten += int(a.Size)
		}
		if a.Space == Code {
			s.CodeAccesses++
		} else {
			s.DataAccesses++
		}
		s.ThinkCycles += int(a.Think)
	case KindCall:
		s.Calls++
	case KindReturn:
		s.Returns++
	}
}

// Summarize drains a stream and returns its stats. Unmatched returns are
// ignored (depth clamps at zero).
func Summarize(s Stream) Stats {
	var st Stats
	depth := 0
	var frames []int
	for {
		e, ok := s.Next()
		if !ok {
			return st
		}
		st.observe(e)
		switch e.Kind {
		case KindCall:
			frames = append(frames, int(e.StackBytes))
			depth += int(e.StackBytes)
			if depth > st.MaxStackBytes {
				st.MaxStackBytes = depth
			}
		case KindReturn:
			if n := len(frames); n > 0 {
				depth -= frames[n-1]
				frames = frames[:n-1]
			}
		}
	}
}
