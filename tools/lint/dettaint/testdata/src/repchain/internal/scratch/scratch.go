// Package scratch exercises dettaint's interprocedural flows: every
// function here either leaks a nondeterminism source into a
// consensus-critical sink (flagged), launders it first (silent), or
// annotates a deliberate flow.
package scratch

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"repchain/internal/codec"
	"repchain/internal/crypto"
)

// stamp is hop one: the wall clock leaves through a return value.
func stamp() int64 {
	return time.Now().UnixNano()
}

// encode is hop two: the taint rides a parameter into fresh bytes.
func encode(v int64) []byte {
	return []byte{byte(v)}
}

// SignStamped is the two-call-hop acceptance flow: time.Now → stamp →
// encode → signing bytes.
func SignStamped(key crypto.PrivateKey) []byte {
	v := stamp()
	b := encode(v)
	return key.Sign(b) // want `time\.Now`
}

// SignEncoded routes the clock through another package's struct field:
// PutUint64 stores into the encoder's buffer, Bytes returns it.
func SignEncoded(key crypto.PrivateKey) []byte {
	enc := &codec.Encoder{}
	enc.PutUint64(uint64(time.Now().UnixNano()))
	return key.Sign(enc.Bytes()) // want `time\.Now`
}

// keyList carries map-iteration order out through its result.
func keyList(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SignKeysSorted launders the order taint: sorting a permutation of a
// deterministic key set is deterministic. Silent.
func SignKeysSorted(key crypto.PrivateKey, m map[string]int) []byte {
	ks := keyList(m)
	sort.Strings(ks)
	return key.Sign([]byte(strings.Join(ks, ",")))
}

// SignKeysUnsorted signs the permutation itself.
func SignKeysUnsorted(key crypto.PrivateKey, m map[string]int) []byte {
	ks := keyList(m)
	return key.Sign([]byte(strings.Join(ks, ","))) // want `map iteration order`
}

// SignFirstArrival signs whichever channel won the select race.
func SignFirstArrival(key crypto.PrivateKey, a, b chan []byte) []byte {
	var msg []byte
	select {
	case msg = <-a:
	case msg = <-b:
	}
	return key.Sign(msg) // want `select arrival order`
}

// HashNonce feeds unseeded process-local randomness into a hash.
func HashNonce() [4]byte {
	n := rand.Uint64()
	return crypto.Sum([]byte{byte(n)}) // want `math/rand`
}

// AddStampedLeaf reaches a Merkle builder through a method sink.
func AddStampedLeaf(b *crypto.MerkleBuilder) {
	b.Add(encode(stamp())) // want `time\.Now`
}

// SignWithBootTime is a deliberate, reasoned flow: suppressed, silent.
func SignWithBootTime(key crypto.PrivateKey) []byte {
	boot := time.Now().Unix()
	payload := []byte{byte(boot)}
	return key.Sign(payload) //repchain:dettaint-ok fixture: boot-time beacon is advisory and never replayed
}

// SignWithTemp has a reasonless suppression: the annotation itself is
// a finding and suppresses nothing.
func SignWithTemp(key crypto.PrivateKey) []byte {
	t := time.Now().UnixNano()
	return key.Sign([]byte{byte(t)}) //repchain:dettaint-ok // want `missing its mandatory reason` `time\.Now`
}

// SignWithArguedSource annotates the read itself: no origin is seeded,
// so every downstream sink is covered by the one reasoned line. Silent.
func SignWithArguedSource(key crypto.PrivateKey) []byte {
	t := time.Now().UnixNano() //repchain:dettaint-ok fixture: advisory stamp argued harmless at the read
	b := encode(t)
	h := crypto.Sum(b)
	return key.Sign(append(b, h[:]...))
}

// HashArguedNonce, SignKeysArgued and SignArguedArrival are the
// suppressed counterparts of HashNonce, SignKeysUnsorted and
// SignFirstArrival: each source kind is argued once, at the read (for
// map order this is what detrange's site annotation used to say).
// Silent.
func HashArguedNonce() [4]byte {
	n := rand.Uint64() //repchain:dettaint-ok fixture: salt for a process-local table, never replicated
	return crypto.Sum([]byte{byte(n)})
}

func SignKeysArgued(key crypto.PrivateKey, m map[string]int) []byte {
	total := 0
	for _, v := range m { //repchain:dettaint-ok fixture: commutative sum, order cannot matter
		total += v
	}
	return key.Sign([]byte{byte(total)})
}

func SignArguedArrival(key crypto.PrivateKey, a, b chan []byte) []byte {
	var msg []byte
	select { //repchain:dettaint-ok fixture: both channels carry the same bytes
	case msg = <-a:
	case msg = <-b:
	}
	return key.Sign(msg)
}

// SignHeight is fully deterministic: silent.
func SignHeight(key crypto.PrivateKey, height uint64) []byte {
	return key.Sign([]byte{byte(height)})
}
