package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		v    uint64
	}{
		{"zero", 0},
		{"one", 1},
		{"seven bits", 127},
		{"eight bits", 128},
		{"large", 1<<40 + 12345},
		{"max", math.MaxUint64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := Wrap(nil)
			e.PutUvarint(tt.v)
			d := NewDecoder(e.Bytes())
			if got := d.Uvarint(); got != tt.v {
				t.Fatalf("Uvarint() = %d, want %d", got, tt.v)
			}
			if err := d.Expect(); err != nil {
				t.Fatalf("Expect() error = %v", err)
			}
		})
	}
}

func TestVarintRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		v    int64
	}{
		{"zero", 0},
		{"positive", 42},
		{"negative", -42},
		{"min", math.MinInt64},
		{"max", math.MaxInt64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := Wrap(nil)
			e.PutVarint(tt.v)
			d := NewDecoder(e.Bytes())
			if got := d.Varint(); d.Err() != nil || got != tt.v {
				t.Fatalf("Varint() = %d, %v, want %d", got, d.Err(), tt.v)
			}
		})
	}
}

func TestBoolRoundTrip(t *testing.T) {
	for _, v := range []bool{true, false} {
		e := Wrap(nil)
		e.PutBool(v)
		d := NewDecoder(e.Bytes())
		if got := d.Bool(); d.Err() != nil || got != v {
			t.Fatalf("Bool() = %v, %v, want %v", got, d.Err(), v)
		}
	}
}

func TestBoolRejectsOtherBytes(t *testing.T) {
	d := NewDecoder([]byte{7})
	if got, err := d.Bool(), d.Err(); got || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Bool() error = %v, want ErrCorrupt", err)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	tests := []struct {
		name string
		v    float64
	}{
		{"zero", 0},
		{"negzero", math.Copysign(0, -1)},
		{"pi", math.Pi},
		{"inf", math.Inf(1)},
		{"neginf", math.Inf(-1)},
		{"tiny", math.SmallestNonzeroFloat64},
		{"huge", math.MaxFloat64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := Wrap(nil)
			e.PutFloat64(tt.v)
			d := NewDecoder(e.Bytes())
			got := d.Float64()
			if err := d.Expect(); err != nil {
				t.Fatalf("Float64() error = %v", err)
			}
			if math.Float64bits(got) != math.Float64bits(tt.v) {
				t.Fatalf("Float64() = %v, want %v", got, tt.v)
			}
		})
	}
}

func TestFloat64NaNCanonical(t *testing.T) {
	a, b := Wrap(nil), Wrap(nil)
	a.PutFloat64(math.NaN())
	b.PutFloat64(math.Float64frombits(0x7FF8000000000001)) // another NaN payload
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("NaN encodings differ; must be canonical")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		v    []byte
	}{
		{"empty", []byte{}},
		{"short", []byte("hello")},
		{"binary", []byte{0, 1, 2, 0xff, 0xfe}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := Wrap(nil)
			e.PutBytes(tt.v)
			d := NewDecoder(e.Bytes())
			got := d.Bytes()
			if err := d.Expect(); err != nil {
				t.Fatalf("Bytes() error = %v", err)
			}
			if !bytes.Equal(got, tt.v) {
				t.Fatalf("Bytes() = %x, want %x", got, tt.v)
			}
		})
	}
}

func TestBytesIsACopy(t *testing.T) {
	e := Wrap(nil)
	e.PutBytes([]byte("abc"))
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.Bytes()
	if err := d.Expect(); err != nil {
		t.Fatalf("Bytes() error = %v", err)
	}
	buf[len(buf)-1] = 'z'
	if string(got) != "abc" {
		t.Fatalf("decoded slice aliases input: %q", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	e := Wrap(nil)
	e.PutString("héllo, 世界")
	d := NewDecoder(e.Bytes())
	got := d.String()
	if err := d.Expect(); err != nil {
		t.Fatalf("String() error = %v", err)
	}
	if got != "héllo, 世界" {
		t.Fatalf("String() = %q", got)
	}
}

func TestTruncatedInputs(t *testing.T) {
	e := Wrap(nil)
	e.PutString("some payload")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		if _ = d.String(); d.Err() == nil {
			t.Fatalf("String() on %d-byte prefix succeeded, want error", cut)
		}
	}
}

func TestLengthLimit(t *testing.T) {
	e := Wrap(nil)
	e.PutUvarint(MaxLen + 1)
	d := NewDecoder(e.Bytes())
	if d.Bytes(); !errors.Is(d.Err(), ErrTooLarge) {
		t.Fatalf("Bytes() error = %v, want ErrTooLarge", d.Err())
	}
}

func TestLengthPrefixBeyondInput(t *testing.T) {
	e := Wrap(nil)
	e.PutUvarint(1000) // claims 1000 bytes follow; none do
	d := NewDecoder(e.Bytes())
	if d.Bytes(); !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Bytes() error = %v, want ErrTruncated", d.Err())
	}
}

// TestCountBoundedByRemainingInput: a count is accepted only when that
// many minimum-size elements fit in the bytes after it.
func TestCountBoundedByRemainingInput(t *testing.T) {
	for _, tc := range []struct {
		count, rest, min int
		ok               bool
	}{
		{3, 6, 2, true},
		{4, 6, 2, false},
		{0, 0, 5, true},
		{1 << 20, 16, 1, false},
		{-1, 8, 1, false},
	} {
		e := Wrap(nil)
		e.PutInt(tc.count)
		e.PutRaw(make([]byte, tc.rest))
		d := NewDecoder(e.Bytes())
		n, err := d.Count(tc.min), d.Err()
		if tc.ok != (err == nil) || tc.ok && n != tc.count || !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("Count(%d) of %d over %d bytes = %d, %v", tc.min, tc.count, tc.rest, n, err)
		}
		if tc.count < 0 {
			continue
		}
		u := Wrap(nil)
		u.PutUvarint(uint64(tc.count))
		u.PutRaw(make([]byte, tc.rest))
		d = NewDecoder(u.Bytes())
		n, err = d.UvarintCount(tc.min), d.Err()
		if tc.ok != (err == nil) || tc.ok && n != tc.count || !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("UvarintCount(%d) of %d over %d bytes = %d, %v", tc.min, tc.count, tc.rest, n, err)
		}
	}
}

func TestRawRoundTrip(t *testing.T) {
	e := Wrap(nil)
	e.PutRaw([]byte{9, 8, 7})
	d := NewDecoder(e.Bytes())
	got := d.Raw(3)
	if err := d.Expect(); err != nil {
		t.Fatalf("Raw() error = %v", err)
	}
	if !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("Raw() = %v", got)
	}
}

func TestRawNegative(t *testing.T) {
	d := NewDecoder([]byte{1})
	if got := d.Raw(-1); got != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Raw(-1) = %v, %v, want ErrCorrupt", got, d.Err())
	}
}

func TestExpectTrailing(t *testing.T) {
	d := NewDecoder([]byte{0, 1, 2})
	if d.Bool(); d.Err() != nil {
		t.Fatalf("Bool() error = %v", d.Err())
	}
	if err := d.Expect(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Expect() error = %v, want ErrCorrupt", err)
	}
}

func TestReset(t *testing.T) {
	e := Wrap(nil)
	e.PutString("first")
	e.Reset()
	e.PutString("x")
	d := NewDecoder(e.Bytes())
	if got, err := d.String(), d.Expect(); err != nil || got != "x" {
		t.Fatalf("after Reset: got %q, %v", got, err)
	}
}

// TestQuickMixedRoundTrip drives a property: any sequence of fields
// encodes and decodes to identical values.
func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, b bool, fl float64, bs []byte, s string) bool {
		e := Wrap(nil)
		e.PutUvarint(u)
		e.PutVarint(i)
		e.PutBool(b)
		e.PutFloat64(fl)
		e.PutBytes(bs)
		e.PutString(s)

		d := NewDecoder(e.Bytes())
		gu, gi, gb, gf, gbs, gs := d.Uvarint(), d.Varint(), d.Bool(), d.Float64(), d.Bytes(), d.String()
		if fl == fl && math.Float64bits(gf) != math.Float64bits(fl) {
			return false
		}
		return d.Expect() == nil && gu == u && gi == i && gb == b && bytes.Equal(gbs, bs) && gs == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism drives the core property the package exists for:
// encoding the same values twice yields identical bytes.
func TestQuickDeterminism(t *testing.T) {
	f := func(u uint64, s string, bs []byte) bool {
		enc := func() []byte {
			e := Wrap(nil)
			e.PutUvarint(u)
			e.PutString(s)
			e.PutBytes(bs)
			out := make([]byte, e.Len())
			copy(out, e.Bytes())
			return out
		}
		return bytes.Equal(enc(), enc())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderKeepsFirstError: after a failed read every read returns its
// zero value and every count 0, the offset stops moving, and Err and
// Expect report the first failure, which Finish wraps; a later Fail
// does not replace it.
func TestDecoderKeepsFirstError(t *testing.T) {
	e := Wrap(nil)
	e.PutUvarint(5)
	e.PutRaw([]byte{7}) // not a boolean byte
	e.PutString("abc")
	e.PutUvarint(1)
	e.PutFloat64(2.5)
	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 5 || d.Err() != nil {
		t.Fatalf("Uvarint() = %d, %v before the failure", got, d.Err())
	}
	if d.Bool() || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Bool() on byte 7: error %v, want ErrCorrupt", d.Err())
	}
	first, off := d.Err(), d.Offset()
	d.Fail(ErrTooLarge)
	dst := []byte{9, 9}
	d.RawInto(dst)
	reads := []any{
		d.Uvarint(), d.Varint(), d.Uint64(), d.Int(), d.Bool(), d.Float64(),
		d.Count(1), d.UvarintCount(1), len(d.Field()), len(d.Bytes()), d.String(),
		d.StringLike("abc"), len(d.Raw(1)), dst[0],
	}
	want := []any{
		uint64(0), int64(0), uint64(0), 0, false, 0.0,
		0, 0, 0, 0, "",
		"", 0, byte(9),
	}
	for i := range reads {
		if reads[i] != want[i] {
			t.Errorf("read %d after the failure = %v, want %v", i, reads[i], want[i])
		}
	}
	if d.Offset() != off {
		t.Errorf("offset moved from %d to %d after the failure", off, d.Offset())
	}
	if d.Err() != first || d.Expect() != first || errors.Is(first, ErrTooLarge) {
		t.Errorf("Err() = %v, Expect() = %v, want the first failure %v", d.Err(), d.Expect(), first)
	}
	sentinel := errors.New("message: bad")
	if err := d.Finish("message", sentinel); !errors.Is(err, sentinel) || !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish() = %v, want it to match the sentinel and ErrCorrupt", err)
	}
	if err := NewDecoder(nil).Finish("empty", sentinel); err != nil {
		t.Errorf("Finish() on empty input = %v", err)
	}
}
