package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The checkpoint is an append-only JSONL journal: a header line
// carrying the format version and the campaign's config hash, then one
// line per finished job. Records are written in a single Write call and
// fsynced before the job counts as finished, so after a crash the
// journal holds at most one torn trailing line, which load tolerates
// (the file is truncated back to the last complete record before
// appending resumes).
//
// Format v2 makes the journal self-verifying: every record line wraps
// the result in an envelope carrying a CRC32C and the canonical SHA-256
// attestation of the result bytes. That lets load distinguish the two
// corruption shapes the FTSPM taxonomy cares about: a torn tail (the
// crash interrupted an append — detectable, safe to truncate, a DUE)
// versus mid-file bitrot (a record that was once durable no longer
// checksums — silent data corruption surfaced as a hard error naming
// the byte offset, never silently truncated or reused). v1 journals
// (no envelopes) remain readable and are appended to in v1 form, so a
// resumed v1 campaign stays parseable end to end.

// Journal format versions. New journals are written at journalVersion;
// journalV1 files are read- and append-compatible.
const (
	journalV1      = 1
	journalV2      = 2
	journalVersion = journalV2
)

// Errors returned by the checkpoint layer.
var (
	// ErrCheckpointExists rejects a fresh (non-resume) run onto an
	// existing checkpoint file: pass Resume or remove the file.
	ErrCheckpointExists = errors.New("campaign: checkpoint file already exists (resume, or remove it to start over)")
	// ErrNoCheckpoint rejects Resume when the checkpoint file does not
	// exist.
	ErrNoCheckpoint = errors.New("campaign: resume requested but checkpoint file does not exist")
	// ErrConfigHashMismatch rejects resuming a checkpoint written
	// under a different campaign configuration.
	ErrConfigHashMismatch = errors.New("campaign: checkpoint config hash mismatch (the journal was written by a differently-configured campaign)")
	// ErrCorruptCheckpoint marks an unparseable non-trailing journal
	// line or a malformed header.
	ErrCorruptCheckpoint = errors.New("campaign: corrupt checkpoint")
	// ErrJournalBitrot marks a v2 record that is newline-complete —
	// its append finished — but no longer matches its own checksums:
	// mid-file silent corruption, as opposed to a torn tail. It always
	// wraps ErrCorruptCheckpoint.
	ErrJournalBitrot = errors.New("journal bitrot")
)

type journalHeader struct {
	V          int    `json:"v"`
	ConfigHash string `json:"config_hash"`
}

// journalRecord is the v2 per-record envelope: the marshaled result
// plus its CRC32C (fast fsck) and canonical SHA-256 attestation (the
// same sum the fabric verifies on the wire, tying the journal to the
// attestation layer).
type journalRecord struct {
	CRC string          `json:"crc"`
	Sum string          `json:"sum"`
	R   json.RawMessage `json:"r"`
}

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crcOf(b []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(b, castagnoli))
}

// SumBytes is the canonical attestation hash of a marshaled result:
// hex SHA-256 over the exact JSON bytes. The fabric stamps it on every
// streamed result, the coordinator re-derives it on receipt, and v2
// journal records store it — one definition, three verification points.
func SumBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// SumResult marshals a raw-typed result and returns its canonical
// attestation sum (and the marshaled bytes, so callers streaming the
// result need not re-encode).
func SumResult(r Result[json.RawMessage]) (sum string, encoded []byte, err error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", nil, err
	}
	return SumBytes(b), b, nil
}

// Journal is the append side of an open checkpoint. version selects the
// record encoding: v2 wraps records in checksum envelopes; a resumed v1
// file keeps appending bare records so the file stays uniformly
// parseable. Both executors, Run and the fabric coordinator, record
// through a Ledger that owns the journal, so a campaign can be
// interrupted under one executor and resumed under the other.
type Journal struct {
	f       *os.File
	version int
	closed  bool
}

// appendHook, when non-nil, intercepts journal appends before they are
// written — the test seam for injecting durable-write (fsync) failures.
var appendHook func(r Result[json.RawMessage]) error

// Append journals one finished job: a single JSON line, written in one
// call and fsynced so the record survives a crash of the very next
// instruction. A non-nil error means the record is NOT durable: the
// caller must treat the job as never finished.
func (j *Journal) Append(r Result[json.RawMessage]) error {
	if appendHook != nil {
		if err := appendHook(r); err != nil {
			return err
		}
	}
	rb, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line := rb
	if j.version >= journalV2 {
		if line, err = FrameRecord(rb); err != nil {
			return err
		}
	}
	return j.appendLine(line)
}

// appendLine writes one raw line (no envelope) and fsyncs.
func (j *Journal) appendLine(line []byte) error {
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the journal; further Appends fail. Safe to call twice.
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// OpenJournal opens path for journaling. A fresh run creates the file
// (failing if it already exists); a resume loads the finished records —
// verifying the config hash and, for v2 journals, every record checksum
// — truncates any torn trailing line, and reopens for appending in the
// file's own format version. It returns the journal and the results
// already finished in it (nil on a fresh run).
func OpenJournal(path, hash string, resume bool) (*Journal, map[string]Result[json.RawMessage], error) {
	if resume {
		return resumeJournal(path, hash)
	}
	// O_EXCL alone decides who owns the file: a separate existence
	// check first would let two fresh runs both pass it, and the loser
	// would then fail with a bare EEXIST.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, os.ErrExist) {
		return nil, nil, fmt.Errorf("%w: %s", ErrCheckpointExists, path)
	}
	if err != nil {
		return nil, nil, err
	}
	jl := &Journal{f: f, version: journalVersion}
	hdr, err := json.Marshal(journalHeader{V: journalVersion, ConfigHash: hash})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := jl.appendLine(hdr); err != nil {
		f.Close()
		return nil, nil, err
	}
	syncDir(path)
	return jl, nil, nil
}

func resumeJournal(path, hash string) (*Journal, map[string]Result[json.RawMessage], error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, path)
		}
		return nil, nil, err
	}
	sc, err := parseJournal(blob, hash)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Drop a torn trailing record (crash mid-append) before new
	// appends, so the journal stays line-parseable.
	if err := f.Truncate(sc.validLen); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(sc.validLen, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, version: sc.header.V}, sc.done, nil
}

// journalScan is one parse of a journal blob.
type journalScan struct {
	header      journalHeader
	done        map[string]Result[json.RawMessage]
	validLen    int64
	records     int
	invalidated int
	tornBytes   int64
}

// parseJournal decodes the journal: header first, then one record per
// line. An empty hash skips the config-hash check (offline
// verification, where the expected hash is unknown).
//
// Tail discipline, per version: a trailing line with no newline is a
// torn append in both formats — everything before it is valid and the
// job it described was never acknowledged, so dropping it is safe. A
// newline-terminated record that fails to parse is treated leniently in
// v1 only when it is the final line (a crash can land exactly on the
// newline of a partial buffered write; v1 has no checksum to rule that
// out). In v2 every completed line carries its own CRC32C + SHA-256, so
// any newline-terminated record that fails to parse or checksum —
// final or not — is bitrot: a hard error naming the byte offset.
func parseJournal(blob []byte, hash string) (*journalScan, error) {
	sc := &journalScan{done: make(map[string]Result[json.RawMessage])}
	sawHeader := false
	for len(blob) > 0 {
		nl := bytes.IndexByte(blob, '\n')
		if nl < 0 {
			sc.tornBytes = int64(len(blob))
			break
		}
		line := blob[:nl]
		rest := blob[nl+1:]
		if !sawHeader {
			var h journalHeader
			if err := json.Unmarshal(line, &h); err != nil || h.V == 0 {
				return nil, fmt.Errorf("%w: bad header", ErrCorruptCheckpoint)
			}
			if h.V != journalV1 && h.V != journalV2 {
				return nil, fmt.Errorf("%w: journal version %d, want %d or %d",
					ErrCorruptCheckpoint, h.V, journalV1, journalV2)
			}
			if hash != "" && h.ConfigHash != hash {
				return nil, fmt.Errorf("%w: journal %s, campaign %s",
					ErrConfigHashMismatch, h.ConfigHash, hash)
			}
			sc.header = h
			sawHeader = true
			sc.validLen += int64(nl + 1)
			blob = rest
			continue
		}
		var r Result[json.RawMessage]
		if sc.header.V >= journalV2 {
			rb, err := UnframeRecord(line)
			if err == nil && (json.Unmarshal(rb, &r) != nil || r.ID == "") {
				err = errors.New("checksummed payload is not a result record")
			}
			if err != nil {
				return nil, fmt.Errorf("%w: %w at byte %d: %w",
					ErrCorruptCheckpoint, ErrJournalBitrot, sc.validLen, err)
			}
		} else {
			if err := json.Unmarshal(line, &r); err != nil || r.ID == "" {
				if len(rest) == 0 {
					// Complete-looking but unparseable final v1 line:
					// treat as torn (see the tail discipline above).
					sc.tornBytes = int64(nl + 1)
					break
				}
				return nil, fmt.Errorf("%w: unparseable record at byte %d", ErrCorruptCheckpoint, sc.validLen)
			}
		}
		sc.records++
		if r.Status == StatusInvalidated {
			// A conviction tombstone: the earlier record for this job
			// was produced by a worker later caught returning divergent
			// results. The job re-runs; a superseding record follows.
			delete(sc.done, r.ID)
			sc.invalidated++
		} else {
			sc.done[r.ID] = r
		}
		sc.validLen += int64(nl + 1)
		blob = rest
	}
	if !sawHeader {
		if sc.tornBytes > 0 {
			return nil, fmt.Errorf("%w: bad header", ErrCorruptCheckpoint)
		}
		return nil, fmt.Errorf("%w: missing header", ErrCorruptCheckpoint)
	}
	return sc, nil
}

// FrameRecord wraps marshaled payload bytes in the v2 self-verifying
// record envelope: {crc32c, canonical sha-256, payload}, one JSON line
// without the trailing newline. The campaign journal frames every v2
// record this way; the result cache's disk tier reuses the exact same
// envelope so one framing definition (and one fsck discipline) covers
// both files.
func FrameRecord(payload []byte) ([]byte, error) {
	return json.Marshal(journalRecord{CRC: crcOf(payload), Sum: SumBytes(payload), R: payload})
}

// UnframeRecord reverses FrameRecord: it decodes one envelope line,
// verifies both checksums, and returns the payload bytes. Any framing
// or checksum failure is an error; callers decide whether that is fatal
// (journal bitrot) or lossy (a cache miss).
func UnframeRecord(line []byte) (json.RawMessage, error) {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("record envelope: %v", err)
	}
	if rec.CRC == "" || rec.Sum == "" || len(rec.R) == 0 {
		return nil, errors.New("record envelope missing crc/sum/r")
	}
	if got := crcOf(rec.R); got != rec.CRC {
		return nil, fmt.Errorf("crc32c %s, record says %s", got, rec.CRC)
	}
	if got := SumBytes(rec.R); got != rec.Sum {
		return nil, fmt.Errorf("sha-256 %s, record says %s", got, rec.Sum)
	}
	return rec.R, nil
}

// JournalInfo summarizes an offline journal verification (ftspm-verify
// and tests).
type JournalInfo struct {
	// Version and ConfigHash echo the header.
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	// Records counts parsed record lines (invalidation tombstones
	// included); Done/Failed/Invalidated break them down — Done and
	// Failed after tombstone supersession, Invalidated as raw tombstone
	// count.
	Records     int `json:"records"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Invalidated int `json:"invalidated"`
	// TornBytes is the length of a torn trailing partial record (0 for
	// a clean tail). A torn tail is recoverable — resume truncates it —
	// so it is reported, not an error.
	TornBytes int64 `json:"torn_bytes"`
}

// VerifyJournal fscks a journal blob offline: header, every record's
// structure, and — for v2 journals — every record's CRC32C and SHA-256.
// The config hash is reported, not checked (the expected value is not
// known offline). Corruption returns a non-nil error distinguishing
// bitrot (ErrJournalBitrot, with byte offset) from structural damage
// (ErrCorruptCheckpoint).
func VerifyJournal(blob []byte) (*JournalInfo, error) {
	sc, err := parseJournal(blob, "")
	if err != nil {
		return nil, err
	}
	info := &JournalInfo{
		Version:     sc.header.V,
		ConfigHash:  sc.header.ConfigHash,
		Records:     sc.records,
		Invalidated: sc.invalidated,
		TornBytes:   sc.tornBytes,
	}
	for _, r := range sc.done {
		if r.Status == StatusFailed {
			info.Failed++
		} else {
			info.Done++
		}
	}
	return info, nil
}

// syncDir fsyncs the directory containing path so a just-created
// journal survives a crash of the host (best-effort: some platforms
// reject directory fsync).
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	defer d.Close()
	d.Sync() //nolint:errcheck // best-effort
}

// HashJSON fingerprints a configuration value: the SHA-256 of its
// canonical JSON encoding, truncated for readability. Campaigns use it
// to refuse resuming a checkpoint written under different settings.
func HashJSON(v any) (string, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8]), nil
}
