// Package resultcache is a content-addressed, two-tier cache for
// deterministic evaluation results. Every evaluation in this system is
// a pure function of (workload, structure, config) — the paper's MDA
// mapping is a static offline decision — so a result can be keyed by
// the canonical SHA-256 of its normalized request and served to any
// later request with the same key: sweep fan-outs, repeated
// /v1/evaluate traffic, soak trials, and fabric placements all share
// one memo table ("mapping as a service").
//
// Keys have two parts, and that split is the safety story. The base
// component identifies the problem (workload, structure, scale,
// thresholds...); the fault component identifies the fault/wear/
// recovery model the result was computed under (strike rate, injection
// target, seed, recovery policy, wear model). A lookup whose base
// matches a cached entry but whose fault component differs is a
// recorded *bypass* — deliberately not a hit, in the spirit of the
// STT-RAM cache-bypassing literature: serving a result computed under
// a different fault model would be a silent-data-corruption factory.
// Because the full key includes the fault digest, a false hit is
// structurally impossible; the bypass counter exists so operators can
// see near-misses on /healthz.
//
// Values are the exact marshaled result bytes the uncached path would
// have produced, so cached and uncached runs yield byte-identical
// artifacts (the PR's equivalence invariant). Entries never encode
// anything derived from wall-clock time or iteration order.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Key is a two-part content address. Base digests the problem
// identity; Fault digests the fault/wear/recovery model. Both are hex
// SHA-256 truncations of canonical JSON. The zero Key is invalid.
type Key struct {
	Base  string
	Fault string
}

// String renders the full key ("base.fault"), the form used for map
// indexing and singleflight collapsing.
func (k Key) String() string { return k.Base + "." + k.Fault }

// Valid reports whether the key has both components.
func (k Key) Valid() bool { return k.Base != "" && k.Fault != "" }

// CanonicalJSON returns the canonical encoding of v: marshal, decode
// into untyped maps/slices, and re-marshal. encoding/json sorts map
// keys at every nesting level on the second marshal, so two
// semantically identical values whose JSON field order differs (map
// iteration, hand-built json.RawMessage, clients with different field
// order) canonicalize to the same bytes. This is the same
// canonicalization discipline campaign.HashJSON relies on for struct
// configs, extended to cover map-typed and raw fields.
func CanonicalJSON(v any) ([]byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var u any
	if err := json.Unmarshal(blob, &u); err != nil {
		return nil, err
	}
	return json.Marshal(u)
}

// digest hashes kind + canonical JSON into a hex digest.
func digest(kind string, v any) (string, error) {
	blob, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	return Digest(kind, blob), nil
}

// Digest hashes kind plus canonical, JSON already in the form
// CanonicalJSON returns, into one key component: NewKey's components
// are Digest(kind, CanonicalJSON(v)). A caller that writes canonical
// JSON directly (one json.Marshal of a struct whose fields are in
// sorted name order at every level) gets the same key without the
// round trip. The kind string namespaces key spaces (evaluate vs soak
// trial) so identical payloads in different domains can never
// collide.
func Digest(kind string, canonical []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canonical)
	var sum [sha256.Size]byte
	var hx [32]byte
	hex.Encode(hx[:], h.Sum(sum[:0])[:16])
	return string(hx[:])
}

// NewKey builds a content address from a kind tag, the problem
// identity, and the fault/wear/recovery model. Both values go through
// CanonicalJSON, so field order never splits a key.
func NewKey(kind string, base, fault any) (Key, error) {
	b, err := digest(kind, base)
	if err != nil {
		return Key{}, fmt.Errorf("resultcache: base key: %w", err)
	}
	f, err := digest(kind, fault)
	if err != nil {
		return Key{}, fmt.Errorf("resultcache: fault key: %w", err)
	}
	return Key{Base: b, Fault: f}, nil
}
