package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestNewEncoderNegativeSizeHint(t *testing.T) {
	e := NewEncoder(-64)
	e.PutUvarint(42)
	d := NewDecoder(e.Bytes())
	if v, err := d.Uvarint(); err != nil || v != 42 {
		t.Fatalf("got %d, %v", v, err)
	}
}

// TestVarintExtremes round-trips the signed boundary values through
// every path (heap encoder, Wrap, AppendTo).
func TestVarintExtremes(t *testing.T) {
	values := []int64{
		0, 1, -1, 63, 64, -64, -65,
		math.MaxInt32, math.MinInt32,
		math.MaxInt64, math.MaxInt64 - 1,
		math.MinInt64, math.MinInt64 + 1,
	}
	e := NewEncoder(0)
	for _, v := range values {
		e.PutVarint(v)
	}
	w := Wrap(nil)
	for _, v := range values {
		w.PutVarint(v)
	}
	if !bytes.Equal(e.Bytes(), w.Bytes()) {
		t.Fatal("Wrap encoding differs from NewEncoder encoding")
	}
	if out := e.AppendTo([]byte{0xFF}); !bytes.Equal(out[1:], e.Bytes()) || out[0] != 0xFF {
		t.Fatal("AppendTo did not append a faithful copy")
	}
	d := NewDecoder(e.Bytes())
	for i, v := range values {
		got, err := d.Varint()
		if err != nil {
			t.Fatalf("value %d (%d): %v", i, v, err)
		}
		if got != v {
			t.Fatalf("value %d: got %d, want %d", i, got, v)
		}
	}
	if err := d.Expect(); err != nil {
		t.Fatal(err)
	}
}

func TestUvarintExtremes(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint64, math.MaxUint64 - 1}
	e := NewEncoder(0)
	for _, v := range values {
		e.PutUvarint(v)
	}
	d := NewDecoder(e.Bytes())
	for i, v := range values {
		got, err := d.Uvarint()
		if err != nil {
			t.Fatalf("value %d (%d): %v", i, v, err)
		}
		if got != v {
			t.Fatalf("value %d: got %d, want %d", i, got, v)
		}
	}
	// Overlong encodings of 0 and 1 would decode to values that
	// re-encode to other bytes.
	for _, b := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}} {
		if _, err := NewDecoder(b).Uvarint(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Uvarint(% x) error = %v, want ErrCorrupt", b, err)
		}
		if _, err := NewDecoder(b).Varint(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Varint(% x) error = %v, want ErrCorrupt", b, err)
		}
	}
}

// TestStrictPrefixTruncation checks that every strict prefix of a
// mixed encoding fails cleanly — either an error on some read or a
// non-nil Expect — and never panics or over-reads.
func TestStrictPrefixTruncation(t *testing.T) {
	e := NewEncoder(0)
	e.PutVarint(math.MinInt64)
	e.PutUvarint(math.MaxUint64)
	e.PutBytes([]byte("payload"))
	e.PutString("str")
	e.PutBool(true)
	e.PutFloat64(-math.MaxFloat64)
	e.PutRaw([]byte{1, 2, 3, 4})
	full := e.Bytes()

	decodeAll := func(d *Decoder) error {
		if _, err := d.Varint(); err != nil {
			return err
		}
		if _, err := d.Uvarint(); err != nil {
			return err
		}
		if _, err := d.Bytes(); err != nil {
			return err
		}
		if _, err := d.String(); err != nil {
			return err
		}
		if _, err := d.Bool(); err != nil {
			return err
		}
		if _, err := d.Float64(); err != nil {
			return err
		}
		if _, err := d.Raw(4); err != nil {
			return err
		}
		return d.Expect()
	}
	if err := decodeAll(NewDecoder(full)); err != nil {
		t.Fatalf("full decode: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		if err := decodeAll(NewDecoder(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestBytesLengthOffByOne checks the one-too-short and one-too-long
// length-prefix edges.
func TestBytesLengthOffByOne(t *testing.T) {
	e := NewEncoder(0)
	e.PutBytes(make([]byte, 16))
	buf := append([]byte(nil), e.Bytes()...)

	// One byte short of the declared length.
	if _, err := NewDecoder(buf[:len(buf)-1]).Bytes(); err == nil {
		t.Fatal("short payload decoded")
	}
	// Length prefix one larger than the payload carried.
	buf[0]++ // single-byte uvarint 16 -> 17
	if _, err := NewDecoder(buf).Bytes(); err == nil {
		t.Fatal("over-declared length decoded")
	}
}

func TestDecoderRemaining(t *testing.T) {
	e := NewEncoder(0)
	e.PutUvarint(1)
	e.PutRaw([]byte{9, 9, 9})
	d := NewDecoder(e.Bytes())
	if got := d.Remaining(); got != e.Len() {
		t.Fatalf("fresh Remaining %d, want %d", got, e.Len())
	}
	if _, err := d.Uvarint(); err != nil {
		t.Fatal(err)
	}
	if got := d.Remaining(); got != 3 {
		t.Fatalf("Remaining %d after uvarint, want 3", got)
	}
	if _, err := d.Raw(3); err != nil {
		t.Fatal(err)
	}
	if got := d.Remaining(); got != 0 {
		t.Fatalf("Remaining %d at end, want 0", got)
	}
}

func TestEncoderPoolReuse(t *testing.T) {
	e := GetEncoder(64)
	e.PutString("first use")
	first := e.AppendTo(nil)
	e.Release()

	f := GetEncoder(64)
	if f.Len() != 0 {
		t.Fatalf("pooled encoder not truncated: len %d", f.Len())
	}
	f.PutString("first use")
	if !bytes.Equal(f.AppendTo(nil), first) {
		t.Fatal("pooled encoder produced different bytes")
	}
	f.Release()

	s := EncoderPoolStats()
	if s.Gets < 2 {
		t.Fatalf("pool stats %+v, want at least 2 gets", s)
	}
}

func TestReleaseNilIsSafe(t *testing.T) {
	var e *Encoder
	e.Release() // must not panic
}

func TestReleaseDropsOversizedBuffers(t *testing.T) {
	e := GetEncoder(0)
	e.PutRaw(make([]byte, 4<<20)) // beyond maxPooledEncoderCap
	e.Release()
	f := GetEncoder(0)
	defer f.Release()
	if cap(f.buf) > maxPooledEncoderCap {
		t.Fatalf("oversized buffer (cap %d) returned to pool", cap(f.buf))
	}
}

// TestWrapAppendsToDst checks Wrap's append-in-place contract.
func TestWrapAppendsToDst(t *testing.T) {
	dst := make([]byte, 0, 64)
	w := Wrap(dst)
	w.PutString("abc")
	out := w.Bytes()
	if len(out) == 0 || &out[0] != &dst[:1][0] {
		t.Fatal("Wrap did not append into the caller's buffer")
	}
}

// TestEncodeNoAllocsSteadyState pins the zero-allocation contract of
// the reused-encoder encode path. The buffer is an explicitly reused
// value (never sync.Pool — GC may empty pools mid-test).
func TestEncodeNoAllocsSteadyState(t *testing.T) {
	e := NewEncoder(512)
	payload := bytes.Repeat([]byte{7}, 64)
	allocs := testing.AllocsPerRun(200, func() {
		e.Reset()
		e.PutUvarint(math.MaxUint64)
		e.PutVarint(math.MinInt64)
		e.PutBytes(payload)
		e.PutString("steady-state")
		e.PutBool(true)
		e.PutFloat64(3.25)
	})
	if allocs != 0 {
		t.Fatalf("encode path allocated %v times per run, want 0", allocs)
	}
}
