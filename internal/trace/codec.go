package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text trace format, one event per line:
//
//	A <R|W> <C|D> <addr-hex> <size> <think>   memory access
//	C <frame-bytes>                           call marker
//	T                                         return marker
//	# ...                                     comment (ignored)
//
// The format is the package's record/replay interchange: a generated
// stream can be written once and replayed later without rebuilding the
// generator.

// ErrBadTraceLine is wrapped by Reader errors for malformed input.
var ErrBadTraceLine = errors.New("trace: malformed trace line")

// Writer serializes events to the text format.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one event. Errors are sticky and returned from Flush too.
func (t *Writer) Write(e Event) error {
	if t.err != nil {
		return t.err
	}
	switch e.Kind {
	case KindAccess:
		a := e.Access
		op := "R"
		if a.Op == Write {
			op = "W"
		}
		sp := "C"
		if a.Space == Data {
			sp = "D"
		}
		_, t.err = fmt.Fprintf(t.w, "A %s %s %x %d %d\n", op, sp, a.Addr, a.Size, a.Think)
	case KindCall:
		_, t.err = fmt.Fprintf(t.w, "C %d\n", e.StackBytes)
	case KindReturn:
		_, t.err = fmt.Fprintln(t.w, "T")
	default:
		t.err = fmt.Errorf("trace: unknown event kind %v", e.Kind)
	}
	return t.err
}

// Flush drains buffered output.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// WriteAll serializes a whole stream to w.
func WriteAll(w io.Writer, s Stream) error {
	tw := NewWriter(w)
	for {
		e, ok := s.Next()
		if !ok {
			return tw.Flush()
		}
		if err := tw.Write(e); err != nil {
			return err
		}
	}
}

// Reader parses the text format as a Stream.
type Reader struct {
	sc   *bufio.Scanner
	line int
	err  error
}

var _ Stream = (*Reader)(nil)

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &Reader{sc: sc}
}

// Err returns the first parse or I/O error encountered, if any. A stream
// that ends because of an error reports ok=false from Next exactly like a
// clean EOF, so callers must check Err after draining.
func (r *Reader) Err() error { return r.err }

// Next implements Stream.
func (r *Reader) Next() (Event, bool) {
	if r.err != nil {
		return Event{}, false
	}
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			r.err = fmt.Errorf("line %d: %w", r.line, err)
			return Event{}, false
		}
		return e, true
	}
	r.err = r.sc.Err()
	return Event{}, false
}

func parseLine(line string) (Event, error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "A":
		if len(fields) != 6 {
			return Event{}, fmt.Errorf("%w: want 6 fields, got %d", ErrBadTraceLine, len(fields))
		}
		var a Access
		switch fields[1] {
		case "R":
			a.Op = Read
		case "W":
			a.Op = Write
		default:
			return Event{}, fmt.Errorf("%w: bad op %q", ErrBadTraceLine, fields[1])
		}
		switch fields[2] {
		case "C":
			a.Space = Code
		case "D":
			a.Space = Data
		default:
			return Event{}, fmt.Errorf("%w: bad space %q", ErrBadTraceLine, fields[2])
		}
		addr, err := strconv.ParseUint(fields[3], 16, 32)
		if err != nil {
			return Event{}, fmt.Errorf("%w: bad addr: %v", ErrBadTraceLine, err)
		}
		a.Addr = uint32(addr)
		var ok bool
		if a.Size, ok = parseInt32(fields[4], 1); !ok {
			return Event{}, fmt.Errorf("%w: bad size %q", ErrBadTraceLine, fields[4])
		}
		if a.Think, ok = parseInt32(fields[5], 0); !ok {
			return Event{}, fmt.Errorf("%w: bad think %q", ErrBadTraceLine, fields[5])
		}
		return AccessEvent(a), nil
	case "C":
		if len(fields) != 2 {
			return Event{}, fmt.Errorf("%w: want 2 fields, got %d", ErrBadTraceLine, len(fields))
		}
		n, ok := parseInt32(fields[1], 0)
		if !ok {
			return Event{}, fmt.Errorf("%w: bad frame size %q", ErrBadTraceLine, fields[1])
		}
		return CallEvent(n), nil
	case "T":
		return ReturnEvent(), nil
	default:
		return Event{}, fmt.Errorf("%w: unknown record %q", ErrBadTraceLine, fields[0])
	}
}

// parseInt32 parses a decimal field that must lie in [lo, MaxInt32].
// Values past int32 are rejected, never truncated.
func parseInt32(field string, lo int32) (int32, bool) {
	n, err := strconv.ParseInt(field, 10, 32)
	return int32(n), err == nil && n >= int64(lo)
}
