package crypto

// The one Ed25519 verification rule (DESIGN.md §4f) is crypto/ed25519's.
// A signature (R, S) by the key A over M is accepted iff A decodes to a
// curve point as Go decodes it (non-canonical encodings of valid points
// accepted), S < ℓ, and the encoding of [S]B − [k]A equals R's bytes,
// with k = SHA-512(R ‖ A ‖ M) mod ℓ. R is never decoded. PublicKey.Verify
// is the one check; CachedVerify calls it on every miss of a key's
// verdict memo.

import (
	"bytes"
	"crypto/sha512"
	"sync"
	"sync/atomic"

	"repchain/internal/crypto/internal/edwards25519"
)

// verifyKey is a public key's verification form: its decoded point,
// negated, and, for a prepared key, that point's comb table
// (edwards25519.CombTable, 30 KiB), with which [k](−A) costs one table
// walk instead of a doubling chain, and its verdict memo. The table is
// of −A, walked with k, rather than of A walked with −k mod ℓ: on a key
// with a small-order component the two differ by a small-order point,
// which would move the verdict. A prepared key builds the table once,
// on its first verification, and every copy of the key shares the
// form. The scalars it multiplies are public, so the variable-time walk
// leaks nothing; signing stays on crypto/ed25519's constant-time path.
type verifyKey struct {
	once  sync.Once
	ok    bool                    // the key decodes to a curve point
	negA  edwards25519.Point      // −A
	table *edwards25519.CombTable // of −A; nil for a key without a table
	memo  memo
}

// newVerifyKey returns a prepared key's empty verification form.
func newVerifyKey() *verifyKey {
	v := new(verifyKey)
	v.memo.settled.L = &v.memo.mu
	return v
}

// tablesBuilt counts the comb tables built for keys in this process.
var tablesBuilt atomic.Int64

// KeyTablesBuilt returns how many key comb tables this process has
// built: one per distinct key object verified, so a count that grows
// after warm-up means a path verifies under fresh PublicKey values
// where it should use the roster's.
func KeyTablesBuilt() int64 { return tablesBuilt.Load() }

// decode fills v from the key bytes, with a comb table when prepared.
func (v *verifyKey) decode(k []byte, prepared bool) {
	if _, err := v.negA.SetBytes(k); err != nil {
		return
	}
	v.negA.Negate(&v.negA)
	v.ok = true
	if prepared {
		v.table = new(edwards25519.CombTable).FromP3(&v.negA)
		tablesBuilt.Add(1)
	}
}

// form returns pub's verification form, building a prepared key's on
// first use. A key without one (a PublicKey literal) is decoded afresh
// on every call and gets no table. Callers have checked pub's length.
func (pub PublicKey) form() *verifyKey {
	if pub.v == nil {
		v := new(verifyKey)
		v.decode(pub.k, false)
		return v
	}
	pub.v.once.Do(func() { pub.v.decode(pub.k, true) })
	return pub.v
}

// memoGeneration caps each of a memo's two generations.
const memoGeneration = 512

// memo is a key's recent verdicts, pass and fail, keyed by
// SumParts(msg, sig): the key is implied. A new entry goes into cur; a
// full cur becomes old, and the previous old is dropped. An entry is
// pending while its first caller checks the signature; later callers
// wait on settled, count as hits and check nothing. Its owner settles
// a pending entry even after it rotates out, and its waiters hold it.
type memo struct {
	mu       sync.Mutex
	settled  sync.Cond         // broadcast when an entry settles; L is &mu
	cur, old map[Hash]*verdict // guarded by mu
}

// verdict is one memoised check; ok is its result once done.
type verdict struct {
	done, ok bool // guarded by mu
}

var verifyHits, verifyMisses atomic.Int64

// VerifyStats returns how many CachedVerify lookups in this process
// found a verdict (hits, waits on a pending one included) and how many
// checked the signature (misses).
func VerifyStats() (hits, misses int64) { return verifyHits.Load(), verifyMisses.Load() }

// claim returns the verdict memoised under h, waiting for a pending
// one to settle. When h has none, it files a pending entry under h and
// returns it: the caller then checks the signature and settles it.
func (m *memo) claim(h Hash) (pending *verdict, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.cur[h]
	if e == nil {
		e = m.old[h]
	}
	if e != nil {
		verifyHits.Add(1)
		for !e.done {
			m.settled.Wait()
		}
		return nil, e.ok
	}
	if len(m.cur) >= memoGeneration {
		clear(m.old) // reused as the next cur
		m.cur, m.old = m.old, m.cur
	}
	if m.cur == nil {
		m.cur = make(map[Hash]*verdict)
	}
	e = new(verdict)
	m.cur[h] = e
	verifyMisses.Add(1)
	return e, false
}

// settle records the pending entry e's verdict and wakes its waiters.
func (m *memo) settle(e *verdict, ok bool) {
	m.mu.Lock()
	e.done, e.ok = true, ok
	m.mu.Unlock()
	m.settled.Broadcast()
}

// CachedVerify is PublicKey.Verify with pub's verdicts memoised on its
// verification form, which every node of an alliance shares through
// the roster: the checks that every governor repeats (uploads, argues,
// tickets, block and stake signatures) cost one each. Structural
// failures and keys built as literals are checked directly, uncounted.
func CachedVerify(pub PublicKey, msg, sig []byte) error {
	if pub.v == nil || len(pub.k) != PublicKeySize || len(sig) != SignatureSize {
		return pub.Verify(msg, sig)
	}
	m := &pub.v.memo
	e, ok := m.claim(SumParts(msg, sig))
	if e != nil {
		ok = pub.Verify(msg, sig) == nil
		m.settle(e, ok)
	}
	if !ok {
		return ErrBadSignature
	}
	return nil
}

// BatchItem is one signature check submitted to VerifyBatch: Sig by
// Pub over Msg, which is only read during the call.
type BatchItem struct {
	Pub      PublicKey
	Msg, Sig []byte
}

// VerifyBatch checks each item with CachedVerify, in order, and returns
// one verdict per item.
func VerifyBatch(items []BatchItem) []error {
	errs := make([]error, len(items))
	for i, it := range items {
		errs[i] = CachedVerify(it.Pub, it.Msg, it.Sig)
	}
	return errs
}

// accepts reports whether sig, SignatureSize bytes, is a signature
// over msg by the key bytes pub, whose decoded form is a: S < ℓ and
// [S]B + [k](−A) encodes to R, through the basepoint's and a's comb
// tables when a has one, through one doubling chain otherwise.
func (a *verifyKey) accepts(pub, msg, sig []byte) bool {
	var s, k edwards25519.Scalar
	if _, err := s.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(pub)
	h.Write(msg)
	var digest [sha512.Size]byte
	// SetUniformBytes fails only on an input that is not 64 bytes long.
	_, _ = k.SetUniformBytes(h.Sum(digest[:0]))
	var p edwards25519.Point
	if a.table != nil {
		p.VarTimeCombMult([]edwards25519.Scalar{s, k},
			[]*edwards25519.CombTable{edwards25519.BasepointCombTable(), a.table})
	} else {
		p.VarTimeDoubleScalarBaseMult(&k, &a.negA, &s)
	}
	return bytes.Equal(p.Bytes(), sig[:32])
}
