// Package contenthash provides the stable content hash of the crawl
// journal (internal/journal: each line's checksum, and the divergence
// digest of its lane snapshots) and of the checkpoint fingerprint, the
// pipeline configuration a resumed crawl must match.
//
// The digest is 128-bit FNV-1a rendered as 32 lowercase hex characters.
// FNV is not cryptographic; it is used here purely to detect torn or
// altered lines and mismatched configurations, where 128 bits make
// accidental collisions vanishingly unlikely.
package contenthash

import (
	"encoding/hex"
	"hash/fnv"
)

// Size is the length of a digest string returned by Sum.
const Size = 32

// Sum returns the 128-bit FNV-1a digest of s as a 32-char hex string.
func Sum(s string) string {
	h := fnv.New128a()
	h.Write([]byte(s))
	var buf [16]byte
	sum := h.Sum(buf[:0])
	var out [Size]byte
	hex.Encode(out[:], sum)
	return string(out[:])
}

// AppendSum appends the 32-char hex digest of b to dst and returns the
// extended slice — Sum for hot paths that hash a reused byte buffer and
// must not allocate (e.g. the crawl journal, which hashes every
// appended line).
func AppendSum(dst, b []byte) []byte {
	h := fnv.New128a()
	h.Write(b)
	var buf [16]byte
	sum := h.Sum(buf[:0])
	var out [Size]byte
	hex.Encode(out[:], sum)
	return append(dst, out[:]...)
}

// Valid reports whether key has the shape of a Sum output. The journal
// uses it to reject a line whose checksum field is malformed.
func Valid(key string) bool {
	if len(key) != Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
