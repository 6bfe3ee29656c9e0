package trace

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleEvents() []Event {
	return []Event{
		CallEvent(64),
		AccessEvent(Access{Op: Read, Space: Code, Addr: 0x1000, Size: 4, Think: 2}),
		AccessEvent(Access{Op: Write, Space: Data, Addr: 0x2004, Size: 4, Think: 0}),
		CallEvent(128),
		AccessEvent(Access{Op: Read, Space: Data, Addr: 0x2008, Size: 8, Think: 5}),
		ReturnEvent(),
		AccessEvent(Access{Op: Write, Space: Data, Addr: 0x200c, Size: 4, Think: 1}),
		ReturnEvent(),
	}
}

func TestSliceStream(t *testing.T) {
	evs := sampleEvents()
	s := NewSliceStream(evs)
	if s.Len() != len(evs) {
		t.Fatalf("Len = %d", s.Len())
	}
	got := Collect(s, 0)
	if !reflect.DeepEqual(got, evs) {
		t.Error("collected events differ")
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream yielded event")
	}
	s.Reset()
	if got := Collect(s, 3); len(got) != 3 {
		t.Errorf("bounded collect = %d events", len(got))
	}
	// The constructor must copy: mutating the source must not alter the
	// stream.
	src := sampleEvents()
	s2 := NewSliceStream(src)
	src[0] = AccessEvent(Access{Op: Write, Space: Data, Addr: 1, Size: 1})
	first, _ := s2.Next()
	if first.Kind != KindCall {
		t.Error("NewSliceStream did not copy its input")
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize(NewSliceStream(sampleEvents()))
	if st.Events != 8 {
		t.Errorf("Events = %d", st.Events)
	}
	if st.Reads != 2 || st.Writes != 2 {
		t.Errorf("Reads/Writes = %d/%d", st.Reads, st.Writes)
	}
	if st.CodeAccesses != 1 || st.DataAccesses != 3 {
		t.Errorf("Code/Data = %d/%d", st.CodeAccesses, st.DataAccesses)
	}
	if st.ThinkCycles != 8 {
		t.Errorf("ThinkCycles = %d", st.ThinkCycles)
	}
	if st.Calls != 2 || st.Returns != 2 {
		t.Errorf("Calls/Returns = %d/%d", st.Calls, st.Returns)
	}
	if st.MaxStackBytes != 192 {
		t.Errorf("MaxStackBytes = %d, want 192", st.MaxStackBytes)
	}
	if st.BytesRead != 12 || st.BytesWritten != 8 {
		t.Errorf("Bytes = %d/%d", st.BytesRead, st.BytesWritten)
	}
	if st.Accesses() != 4 {
		t.Errorf("Accesses = %d", st.Accesses())
	}
}

func TestSummarizeUnmatchedReturn(t *testing.T) {
	st := Summarize(NewSliceStream([]Event{ReturnEvent(), CallEvent(32)}))
	if st.MaxStackBytes != 32 {
		t.Errorf("MaxStackBytes = %d, want 32", st.MaxStackBytes)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, NewSliceStream(sampleEvents())); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got := Collect(r, 0)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleEvents()) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, sampleEvents())
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	// Property: any randomly generated valid trace survives a
	// write/read roundtrip bit-for-bit.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		evs := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				op := Read
				if rng.Intn(2) == 0 {
					op = Write
				}
				sp := Code
				if rng.Intn(2) == 0 {
					sp = Data
				}
				evs = append(evs, AccessEvent(Access{
					Op: op, Space: sp,
					Addr:  rng.Uint32(),
					Size:  1 + rng.Int31n(64),
					Think: rng.Int31n(100),
				}))
			case 1:
				evs = append(evs, CallEvent(rng.Int31n(1024)))
			default:
				evs = append(evs, ReturnEvent())
			}
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, NewSliceStream(evs)); err != nil {
			return false
		}
		r := NewReader(&buf)
		got := Collect(r, 0)
		return r.Err() == nil && reflect.DeepEqual(got, evs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nA R C 10 4 0\n  \n# trailing\nT\n"
	r := NewReader(strings.NewReader(in))
	got := Collect(r, 0)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != KindAccess || got[1].Kind != KindReturn {
		t.Errorf("got %+v", got)
	}
	if got[0].Access.Addr != 0x10 {
		t.Errorf("addr = %#x, want 0x10 (hex)", got[0].Access.Addr)
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	bad := []string{
		"X 1 2",
		"A R C zz 4 0",
		"A Q C 10 4 0",
		"A R X 10 4 0",
		"A R C 10 0 0",
		"A R C 10 4 -1",
		"A R C 10 4",
		"C -5",
		"C x",
		"C",
		// Just past int32: rejected, never truncated.
		"A R C 10 2147483648 0",
		"A R C 10 4 2147483648",
		"C 2147483648",
		"A R C 10 4294967297 0",
	}
	for _, in := range bad {
		r := NewReader(strings.NewReader(in + "\n"))
		if _, ok := r.Next(); ok {
			t.Errorf("%q: accepted", in)
			continue
		}
		if err := r.Err(); !errors.Is(err, ErrBadTraceLine) {
			t.Errorf("%q: err = %v, want ErrBadTraceLine", in, err)
		}
	}
}

// TestReaderAcceptsInt32Max: the largest size, think and frame values
// the event fields hold parse exactly.
func TestReaderAcceptsInt32Max(t *testing.T) {
	r := NewReader(strings.NewReader("A W D ffffffff 2147483647 2147483647\nC 2147483647\n"))
	got := Collect(r, 0)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		AccessEvent(Access{Op: Write, Space: Data, Addr: 0xffffffff, Size: math.MaxInt32, Think: math.MaxInt32}),
		CallEvent(math.MaxInt32),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestWriterRejectsUnknownKind(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write(Event{Kind: Kind(99)}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Error is sticky.
	if err := w.Write(CallEvent(4)); err == nil {
		t.Error("sticky error lost")
	}
	if err := w.Flush(); err == nil {
		t.Error("Flush ignored sticky error")
	}
}

func TestStringers(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Op(9).String() != "Op(9)" {
		t.Error("op stringer")
	}
	if Code.String() != "code" || Data.String() != "data" || Space(9).String() != "Space(9)" {
		t.Error("space stringer")
	}
	if KindAccess.String() != "access" || KindCall.String() != "call" ||
		KindReturn.String() != "return" || Kind(9).String() != "Kind(9)" {
		t.Error("kind stringer")
	}
	if !Read.Valid() || !Write.Valid() || Op(0).Valid() {
		t.Error("op validity")
	}
	if !Code.Valid() || !Data.Valid() || Space(0).Valid() {
		t.Error("space validity")
	}
}

func FuzzReaderNeverPanics(f *testing.F) {
	f.Add("A R C 10 4 0\nC 8\nT\n")
	f.Add("# comment\n\nA W D ffffffff 64 3\n")
	f.Add("X bogus\n")
	f.Add("A R C zz 4 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		r := NewReader(strings.NewReader(in))
		// Drain; malformed input must surface as Err(), never panic.
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		_ = r.Err()
	})
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint32(0x1000), int32(4), int32(0), true, true)
	f.Add(uint32(0xffffffff), int32(math.MaxInt32), int32(math.MaxInt32), false, false)
	f.Fuzz(func(t *testing.T, addr uint32, size, think int32, read, code bool) {
		if size < 1 || think < 0 {
			t.Skip()
		}
		a := Access{Op: Write, Space: Data, Addr: addr, Size: size, Think: think}
		if read {
			a.Op = Read
		}
		if code {
			a.Space = Code
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, NewSliceStream([]Event{AccessEvent(a)})); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		got := Collect(r, 0)
		if err := r.Err(); err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if len(got) != 1 || got[0].Access != a {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", got, a)
		}
	})
}
