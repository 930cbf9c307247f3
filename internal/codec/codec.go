// Package codec implements a deterministic binary encoding used for
// hashing and signing protocol messages.
//
// Determinism matters: two nodes must derive the identical byte string
// for the same logical value, or signatures and block hashes diverge.
// Go's encoding/json does not guarantee map ordering and encoding/gob
// embeds type metadata that can vary with registration order, so the
// protocol encodes every signed or hashed structure through this
// package instead.
//
// The format is a simple length-prefixed concatenation:
//
//   - unsigned integers: unsigned varint (base-128, little-endian groups)
//   - signed integers: zig-zag mapped, then varint
//   - byte slices and strings: varint length followed by raw bytes
//   - booleans: a single 0x00 or 0x01 byte
//   - float64: IEEE-754 bits as a fixed 8-byte big-endian word
//
// Encoders never fail; decoders validate lengths and report
// ErrCorrupt or ErrTruncated on malformed input.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Sentinel decoding errors. Callers match these with errors.Is.
var (
	// ErrTruncated reports that the buffer ended before the value did.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrCorrupt reports a structurally invalid encoding, for example a
	// varint longer than ten bytes or a length prefix exceeding the
	// remaining input.
	ErrCorrupt = errors.New("codec: corrupt input")
	// ErrTooLarge reports a length prefix above MaxLen.
	ErrTooLarge = errors.New("codec: length exceeds limit")
)

// MaxLen bounds any single length-prefixed field. It protects decoders
// from hostile length prefixes that would otherwise drive huge
// allocations.
const MaxLen = 1 << 26 // 64 MiB

// Encoder accumulates a deterministic byte encoding. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated for sizeHint
// bytes.
func NewEncoder(sizeHint int) *Encoder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded buffer. The returned slice aliases the
// encoder's internal storage; callers that keep it past the next Put
// call must copy it.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the accumulated encoding but keeps the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Wrap returns an encoder that appends to dst, reusing its backing
// array. Unlike GetEncoder it involves no pool and the returned value
// can live on the caller's stack, so hot paths that already own a
// scratch buffer encode with zero heap allocations:
//
//	e := codec.Wrap(buf[:0])
//	v.Encode(&e)
//	buf = e.Bytes()
//
// The encoder owns dst until Bytes is read back; dst must not be used
// while encoding is in progress.
func Wrap(dst []byte) Encoder { return Encoder{buf: dst} }

// AppendTo appends the encoded bytes accumulated so far to dst and
// returns the extended slice. It never aliases the encoder's internal
// storage, so the result stays valid after Release or further Puts.
func (e *Encoder) AppendTo(dst []byte) []byte {
	return append(dst, e.buf...)
}

// Pooled encoders. Marshal sites on the drain→screen→pack hot path run
// once per transaction per node; allocating a fresh buffer each time
// dominated the allocation profile (DESIGN.md §4f). GetEncoder/Release
// recycle buffers through a sync.Pool instead.
//
// Ownership rule: the caller owns the encoder from GetEncoder until
// Release and must not touch the encoder, or any slice obtained from
// Bytes, after Release. Data that outlives the encoder must be copied
// out first (AppendTo does this).

const (
	// pooledEncoderCap is the initial capacity of pool-fresh encoders,
	// sized for typical signed-transaction encodings.
	pooledEncoderCap = 512
	// maxPooledEncoderCap bounds the buffer capacity returned to the
	// pool so one huge message cannot pin a huge buffer forever.
	maxPooledEncoderCap = 1 << 20
)

var (
	poolGets   atomic.Int64
	poolMisses atomic.Int64

	encoderPool = sync.Pool{New: func() any {
		poolMisses.Add(1)
		return &Encoder{buf: make([]byte, 0, pooledEncoderCap)}
	}}
)

// GetEncoder returns an empty pooled encoder with at least sizeHint
// bytes of capacity. Pass it back to Release when done.
func GetEncoder(sizeHint int) *Encoder {
	poolGets.Add(1)
	e := encoderPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	if sizeHint > cap(e.buf) {
		e.buf = make([]byte, 0, sizeHint)
	}
	return e
}

// Release returns a pooled encoder for reuse. The encoder and any
// slice previously returned by Bytes must not be used afterwards.
// Oversized buffers are shrunk so the pool holds only hot-path-sized
// allocations.
func (e *Encoder) Release() {
	if e == nil {
		return
	}
	if cap(e.buf) > maxPooledEncoderCap {
		e.buf = make([]byte, 0, pooledEncoderCap)
	}
	e.buf = e.buf[:0]
	encoderPool.Put(e)
}

// PoolStats is a snapshot of the pooled-encoder counters, exported as
// the codec.pool_* gauges.
type PoolStats struct {
	// Gets counts GetEncoder calls.
	Gets int64
	// Misses counts pool misses that allocated a fresh encoder.
	Misses int64
}

// EncoderPoolStats returns the cumulative pooled-encoder counters.
func EncoderPoolStats() PoolStats {
	return PoolStats{
		Gets:   poolGets.Load(),
		Misses: poolMisses.Load(),
	}
}

// PutUvarint appends an unsigned varint.
func (e *Encoder) PutUvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// PutVarint appends a zig-zag signed varint.
func (e *Encoder) PutVarint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// PutUint64 appends v as an unsigned varint. Convenience alias used by
// message encoders for readability.
func (e *Encoder) PutUint64(v uint64) { e.PutUvarint(v) }

// PutInt appends v as a signed varint.
func (e *Encoder) PutInt(v int) { e.PutVarint(int64(v)) }

// PutBool appends a single boolean byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// PutFloat64 appends the IEEE-754 bit pattern of v as 8 big-endian
// bytes. NaNs are canonicalized so equal logical values encode equally.
func (e *Encoder) PutFloat64(v float64) {
	bits := math.Float64bits(v)
	if v != v { // canonical NaN
		bits = 0x7FF8000000000000
	}
	e.buf = binary.BigEndian.AppendUint64(e.buf, bits)
}

// PutBytes appends a varint length prefix followed by b.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutString appends a varint length prefix followed by the bytes of s.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutRaw appends b with no length prefix. Use only for fixed-width
// fields whose size both sides know statically.
func (e *Encoder) PutRaw(b []byte) {
	e.buf = append(e.buf, b...)
}

// Decoder consumes a deterministic byte encoding produced by Encoder.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Remaining reports how many bytes are left to decode.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done reports whether the input has been fully consumed.
func (d *Decoder) Done() bool { return d.off >= len(d.buf) }

// Offset reports how many bytes have been consumed.
func (d *Decoder) Offset() int { return d.off }

// Since returns the input consumed since offset off, uncopied.
func (d *Decoder) Since(off int) []byte { return d.buf[off:d.off] }

// Uvarint decodes an unsigned varint. Only the shortest encoding of a
// value is accepted — its last byte is non-zero unless it is the only
// one — so every accepted input re-encodes to the same bytes.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n > 1 && d.buf[d.off+n-1] == 0:
		return 0, fmt.Errorf("overlong varint at offset %d: %w", d.off, ErrCorrupt)
	case n > 0:
		d.off += n
		return v, nil
	case n == 0:
		return 0, ErrTruncated
	default:
		return 0, fmt.Errorf("varint overflow at offset %d: %w", d.off, ErrCorrupt)
	}
}

// Varint decodes a zig-zag signed varint.
func (d *Decoder) Varint() (int64, error) {
	ux, err := d.Uvarint()
	v := int64(ux >> 1)
	if ux&1 != 0 {
		v = ^v
	}
	return v, err
}

// errCount refuses an element count the remaining input cannot hold.
// It is a value, so refusing a hostile count allocates nothing.
var errCount = fmt.Errorf("element count does not fit the remaining input: %w", ErrCorrupt)

// Count decodes an element count written by Encoder.PutInt and fails,
// wrapping ErrCorrupt, unless that many elements of at least
// minElemBytes bytes each fit in the input that remains. Decoders call
// it before allocating for the elements, so a hostile count cannot
// size an allocation beyond the bytes it arrived with.
func (d *Decoder) Count(minElemBytes int) (int, error) {
	n, err := d.Varint()
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, errCount
	}
	return d.fit(uint64(n), minElemBytes)
}

// UvarintCount is Count for a count written by Encoder.PutUvarint.
func (d *Decoder) UvarintCount(minElemBytes int) (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	return d.fit(n, minElemBytes)
}

func (d *Decoder) fit(n uint64, minElemBytes int) (int, error) {
	if n > uint64(d.Remaining()/minElemBytes) {
		return 0, errCount
	}
	return int(n), nil
}

// Uint64 decodes an unsigned varint. Convenience alias mirroring
// Encoder.PutUint64.
func (d *Decoder) Uint64() (uint64, error) { return d.Uvarint() }

// Int decodes a signed varint into an int.
func (d *Decoder) Int() (int, error) {
	v, err := d.Varint()
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

// Bool decodes a single boolean byte.
func (d *Decoder) Bool() (bool, error) {
	if d.Remaining() < 1 {
		return false, ErrTruncated
	}
	b := d.buf[d.off]
	d.off++
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("boolean byte %#x: %w", b, ErrCorrupt)
	}
}

// Float64 decodes a fixed 8-byte IEEE-754 value.
func (d *Decoder) Float64() (float64, error) {
	if d.Remaining() < 8 {
		return 0, ErrTruncated
	}
	bits := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

// Field returns the next length-prefixed field, uncopied: it aliases
// the input, so a caller that keeps it must copy it.
func (d *Decoder) Field() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > MaxLen {
		return nil, fmt.Errorf("length %d: %w", n, ErrTooLarge)
	}
	if uint64(d.Remaining()) < n {
		return nil, ErrTruncated
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// Bytes decodes a length-prefixed byte slice. The result is a copy and
// safe to retain.
func (d *Decoder) Bytes() ([]byte, error) {
	b, err := d.Field()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// String decodes a length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.Field()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// StringLike is String for a field that often repeats a string the
// caller already holds: it returns like itself, allocating nothing,
// when the field equals it.
func (d *Decoder) StringLike(like string) (string, error) {
	b, err := d.Field()
	if err != nil {
		return "", err
	}
	if string(b) == like {
		return like, nil
	}
	return string(b), nil
}

// Raw decodes n bytes with no length prefix. The result is a copy.
func (d *Decoder) Raw(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative length %d: %w", n, ErrCorrupt)
	}
	out := make([]byte, n)
	if err := d.RawInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// RawInto decodes len(dst) bytes with no length prefix into dst.
func (d *Decoder) RawInto(dst []byte) error {
	if d.Remaining() < len(dst) {
		return ErrTruncated
	}
	d.off += copy(dst, d.buf[d.off:])
	return nil
}

// Expect verifies that the input is fully consumed, returning ErrCorrupt
// with the number of trailing bytes otherwise. Message decoders call it
// last to reject padded or concatenated inputs.
func (d *Decoder) Expect() error {
	if rem := d.Remaining(); rem != 0 {
		return fmt.Errorf("%d trailing bytes: %w", rem, ErrCorrupt)
	}
	return nil
}
