package campaign

import (
	"encoding/json"
	"testing"
)

// FuzzParseJournal throws arbitrary blobs — seeded with valid v1/v2
// journals, truncations, and bit flips — at the journal parser. The
// properties under test:
//
//  1. parseJournal never panics, whatever the input;
//  2. on success, validLen never exceeds the blob and marks a
//     self-consistent prefix: re-parsing blob[:validLen] succeeds with
//     the same record count and the same validLen (so a resume that
//     truncates to validLen is guaranteed to land on a journal the next
//     resume accepts).
func FuzzParseJournal(f *testing.F) {
	v1 := []byte(`{"v":1,"config_hash":"h"}
{"id":"a","status":"done","attempts":1,"value":1}
{"id":"b","status":"failed","attempts":2,"value":0,"error":"boom"}
`)
	rb := []byte(`{"id":"a","status":"done","attempts":1,"value":7}`)
	env, err := json.Marshal(journalRecord{CRC: crcOf(rb), Sum: SumBytes(rb), R: rb})
	if err != nil {
		f.Fatal(err)
	}
	v2 := append([]byte(`{"v":2,"config_hash":"h"}`+"\n"), append(env, '\n')...)

	f.Add(v1)
	f.Add(v2)
	f.Add(v1[:len(v1)-9]) // torn tail
	f.Add(v2[:len(v2)-9])
	flipped := append([]byte(nil), v2...)
	flipped[len(flipped)-10] ^= 0x10
	f.Add(flipped)
	f.Add([]byte(""))
	f.Add([]byte("{\n"))
	f.Add([]byte(`{"v":9,"config_hash":"h"}` + "\n"))

	f.Fuzz(func(t *testing.T, blob []byte) {
		sc, err := parseJournal(blob, "")
		if err != nil {
			return
		}
		if sc.validLen < 0 || sc.validLen > int64(len(blob)) {
			t.Fatalf("validLen %d outside blob of %d bytes", sc.validLen, len(blob))
		}
		if sc.tornBytes < 0 || sc.validLen+sc.tornBytes != int64(len(blob)) {
			t.Fatalf("validLen %d + tornBytes %d != len %d", sc.validLen, sc.tornBytes, len(blob))
		}
		re, err := parseJournal(blob[:sc.validLen], "")
		if err != nil {
			t.Fatalf("valid prefix of %d bytes failed to re-parse: %v", sc.validLen, err)
		}
		if re.records != sc.records || re.validLen != sc.validLen || re.tornBytes != 0 {
			t.Fatalf("re-parse of valid prefix diverged: records %d→%d validLen %d→%d torn %d",
				sc.records, re.records, sc.validLen, re.validLen, re.tornBytes)
		}
	})
}
