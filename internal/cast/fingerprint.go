package cast

// Incremental content fingerprints.
//
// The repair search derives cache keys from the candidate's canonical
// text. Printing a whole unit per candidate is O(unit), which dominates
// candidate construction once evaluation itself is fast. Fingerprints
// make that cost proportional to the edit instead: the unit hash is
// composed from per-declaration hashes, and a Fingerprints memo keyed by
// *FuncDecl identity caches the expensive leaves. Structure-sharing
// clones (CloneUnitScoped) keep the identity of every unedited function,
// so after an edit only the edited declaration is reprinted and the unit
// hash is recombined from memoized parts in O(edited decl).
//
// The hash is length-prefixed SHA-256 over the printed form of each
// declaration plus the branch-site count, so two structurally distinct
// units cannot collide without a SHA-256 collision, and the composed
// value is a pure function of the unit — memoized and from-scratch
// computations agree by construction (fingerprint_test.go proves it over
// random generated programs and a committed regression corpus).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
)

// fingerprintMemoCap bounds the per-search memo. The stable residents
// are the parent unit's declarations; every evaluated candidate also
// deposits its (ephemeral) edited declaration, and a large cap would
// pin thousands of dead candidate ASTs for the garbage collector to
// scan. A small cap keeps the live set near the working set — on reset
// the stable declarations re-hash once, which is noise.
const fingerprintMemoCap = 512

// Fingerprints memoizes per-declaration hashes and line counts across
// the candidates of one repair search. The zero value and nil are both
// usable (every lookup misses); methods are safe for concurrent use.
type Fingerprints struct {
	mu sync.Mutex
	m  map[Decl]declPrint
}

// declPrint is what printing one declaration yields: its hash and its
// non-blank line count.
type declPrint struct {
	hash  string
	lines int
}

// NewFingerprints returns an empty memo.
func NewFingerprints() *Fingerprints {
	return &Fingerprints{m: make(map[Decl]declPrint)}
}

// Unit composes the content fingerprint of u from per-declaration
// hashes, reusing memoized hashes for function declarations already
// seen (by pointer identity).
func (f *Fingerprints) Unit(u *Unit) string {
	h := sha256.New()
	hashPart(h, "unit")
	hashPart(h, strconv.Itoa(u.NumBranches))
	for _, d := range u.Decls {
		hashPart(h, f.decl(d).hash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Lines is CountLines(u), summed from per-declaration counts: Print
// separates declarations by line breaks, so no line spans two of them.
func (f *Fingerprints) Lines(u *Unit) int {
	n := 0
	for _, d := range u.Decls {
		n += f.decl(d).lines
	}
	return n
}

// decl returns the hash and line count of one declaration, memoized by
// pointer identity. Structure-sharing candidates keep the identity of
// every unedited declaration (functions, structs, globals alike), so
// after an edit only the edited declaration is reprinted.
func (f *Fingerprints) decl(d Decl) declPrint {
	if f == nil {
		return printDecl(d)
	}
	f.mu.Lock()
	if fp, ok := f.m[d]; ok {
		f.mu.Unlock()
		return fp
	}
	f.mu.Unlock()
	fp := printDecl(d)
	f.mu.Lock()
	if f.m == nil || len(f.m) >= fingerprintMemoCap {
		f.m = make(map[Decl]declPrint)
	}
	f.m[d] = fp
	f.mu.Unlock()
	return fp
}

// FingerprintUnit computes the unit fingerprint from scratch, with no
// memo. Defined to agree exactly with Fingerprints.Unit.
func FingerprintUnit(u *Unit) string {
	return (*Fingerprints)(nil).Unit(u)
}

func printDecl(d Decl) declPrint {
	text := PrintDecl(d)
	h := sha256.New()
	hashPart(h, "decl")
	hashPart(h, text)
	return declPrint{hash: hex.EncodeToString(h.Sum(nil)), lines: countLines(text)}
}

func hashPart(h interface{ Write([]byte) (int, error) }, p string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
	h.Write(n[:])
	h.Write([]byte(p))
}
