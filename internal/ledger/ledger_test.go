package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/tx"
)

func testKey(t testing.TB, b byte) (crypto.PublicKey, crypto.PrivateKey) {
	t.Helper()
	seed := make([]byte, crypto.SeedSize)
	seed[0] = b
	pub, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func testRecords(t testing.TB, n int, start uint64) []Record {
	t.Helper()
	_, priv := testKey(t, 1)
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		signed := tx.Sign(tx.Transaction{
			Provider:  "provider/0",
			Seq:       start + uint64(i),
			Timestamp: int64(1000 + i),
			Kind:      "test/rec",
			Payload:   []byte(fmt.Sprintf("payload-%d", i)),
		}, priv)
		st := tx.StatusValid
		label := tx.LabelValid
		unchecked := false
		if i%3 == 2 {
			st = tx.StatusInvalid
			label = tx.LabelInvalid
			unchecked = true
		}
		recs = append(recs, Record{Signed: signed, Label: label, Status: st, Unchecked: unchecked})
	}
	return recs
}

func buildChain(t *testing.T, store Store, blocks, perBlock int) []Block {
	t.Helper()
	_, priv := testKey(t, 2)
	var prev *Block
	out := make([]Block, 0, blocks)
	for i := 0; i < blocks; i++ {
		b, err := NewBlock(prev, testRecords(t, perBlock, uint64(i*perBlock)), 0)
		if err != nil {
			t.Fatalf("NewBlock() error = %v", err)
		}
		b.SignAs("governor/0", priv)
		if err := store.Append(b); err != nil {
			t.Fatalf("Append(%d) error = %v", b.Serial, err)
		}
		out = append(out, b)
		prev = &out[len(out)-1]
	}
	return out
}

func TestBlockHashDeterministic(t *testing.T) {
	recs := testRecords(t, 3, 0)
	a, err := NewBlock(nil, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBlock(nil, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("equal blocks hash differently")
	}
}

func TestBlockHashBindsContents(t *testing.T) {
	recs := testRecords(t, 3, 0)
	base, err := NewBlock(nil, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutated := base
	mutated.Serial = 99
	if mutated.Hash() == base.Hash() {
		t.Fatal("serial not bound by hash")
	}
	mutated = base
	mutated.Records = base.Records[:2]
	if mutated.Hash() == base.Hash() {
		t.Fatal("records not bound by hash")
	}
	mutated = base
	mutated.PrevHash = crypto.Sum([]byte("other"))
	if mutated.Hash() == base.Hash() {
		t.Fatal("previous hash not bound by hash")
	}
	mutated = base
	mutated.Proposer = "governor/9"
	if mutated.Hash() == base.Hash() {
		t.Fatal("proposer not bound by hash")
	}
}

func TestBlockSignVerify(t *testing.T) {
	pub, priv := testKey(t, 3)
	b, err := NewBlock(nil, testRecords(t, 2, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	signed, frame := b.Seal("governor/1", priv)
	if err := b.VerifyProposer(pub, b.Hash()); err != nil {
		t.Fatalf("VerifyProposer() error = %v", err)
	}
	if signed != b.Hash() || !bytes.Equal(frame, b.EncodeBytes()) {
		t.Fatalf("Seal hash %s, block hash %s; frame is the encoding: %v",
			signed.Short(), b.Hash().Short(), bytes.Equal(frame, b.EncodeBytes()))
	}
	// The hashes a replica takes from the frame are the block's.
	got, rcv, err := ReceiveBlock(frame, crypto.NewMerkleBuilder(0))
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Hash != signed || rcv.Root != got.TxRoot || len(rcv.IDs) != 2 || rcv.IDs[1] != b.Records[1].Signed.ID() {
		t.Fatalf("received hash %s root %s, block hash %s root %s", rcv.Hash.Short(), rcv.Root.Short(), signed.Short(), got.TxRoot.Short())
	}
	// Tamper after signing.
	b.Serial = 42
	if err := b.VerifyProposer(pub, b.Hash()); err == nil {
		t.Fatal("tampered block verified")
	}
}

// TestDecodeBlockRejectsTruncatedLabel: a record label varint 256 away
// from a legal one is refused, not cast onto it — else two frames would
// decode to one block and one hash.
func TestDecodeBlockRejectsTruncatedLabel(t *testing.T) {
	recs := testRecords(t, 2, 0)
	for _, shift := range []int64{256, -256} {
		e := codec.NewEncoder(0)
		e.PutString(blockTag)
		e.PutUint64(1)
		tx.EncodeList(e, recs, func(r *Record) *tx.SignedTx { return &r.Signed }, func(e *codec.Encoder, r *Record) {
			e.PutVarint(int64(r.Label) + shift)
			e.PutInt(int(r.Status))
			e.PutBool(r.Unchecked)
		})
		e.PutRaw(crypto.ZeroHash[:])
		e.PutRaw(crypto.ZeroHash[:])
		e.PutString("governor/0")
		e.PutBytes([]byte("sig"))
		if _, err := DecodeBlockBytes(e.Bytes()); !errors.Is(err, ErrDecode) {
			t.Fatalf("label shifted by %d: error = %v, want ErrDecode", shift, err)
		}
	}
}

func TestNewBlockEnforcesLimit(t *testing.T) {
	_, err := NewBlock(nil, testRecords(t, 5, 0), 4)
	if !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("NewBlock() error = %v, want ErrBlockTooLarge", err)
	}
	if _, err := NewBlock(nil, testRecords(t, 4, 0), 4); err != nil {
		t.Fatalf("NewBlock() at limit error = %v", err)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	_, priv := testKey(t, 3)
	b, err := NewBlock(nil, testRecords(t, 4, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.SignAs("governor/0", priv)
	got, err := DecodeBlockBytes(b.EncodeBytes())
	if err != nil {
		t.Fatalf("DecodeBlockBytes() error = %v", err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("round trip changed block hash")
	}
	if len(got.Records) != len(b.Records) {
		t.Fatal("round trip changed record count")
	}
	for i := range got.Records {
		if got.Records[i].Status != b.Records[i].Status ||
			got.Records[i].Unchecked != b.Records[i].Unchecked ||
			got.Records[i].Signed.ID() != b.Records[i].Signed.ID() {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestDecodeBlockRejectsGarbage(t *testing.T) {
	if _, err := DecodeBlockBytes([]byte("not a block")); err == nil {
		t.Fatal("garbage decoded")
	}
	b, err := NewBlock(nil, testRecords(t, 2, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := b.EncodeBytes()
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeBlockBytes(enc[:cut]); err == nil {
			t.Fatalf("truncated block of %d bytes decoded", cut)
		}
	}
}

func TestMemoryStoreAppendGet(t *testing.T) {
	store := NewMemoryStore()
	blocks := buildChain(t, store, 5, 3)
	if store.Height() != 5 {
		t.Fatalf("Height() = %d, want 5", store.Height())
	}
	for _, want := range blocks {
		got, err := store.Get(want.Serial)
		if err != nil {
			t.Fatalf("Get(%d) error = %v", want.Serial, err)
		}
		if got.Hash() != want.Hash() {
			t.Fatalf("Get(%d) returned different block", want.Serial)
		}
	}
	head, err := store.Head()
	if err != nil {
		t.Fatal(err)
	}
	if head.Serial != 5 {
		t.Fatalf("Head() serial = %d, want 5", head.Serial)
	}
}

func TestMemoryStoreGetMissing(t *testing.T) {
	store := NewMemoryStore()
	buildChain(t, store, 2, 1)
	for _, s := range []uint64{0, 3, 100} {
		if _, err := store.Get(s); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%d) error = %v, want ErrNotFound", s, err)
		}
	}
}

func TestMemoryStoreHeadEmpty(t *testing.T) {
	store := NewMemoryStore()
	if _, err := store.Head(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Head() error = %v, want ErrNotFound", err)
	}
}

// TestStoreHeadHash: both stores keep their head's hash — ZeroHash on
// an empty chain, what Block.Hash computes after every append, and
// across a FileStore reopen — and NewBlockWithRoot over it links.
func TestStoreHeadHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []Store{NewMemoryStore(), fs} {
		if h := store.HeadHash(); !h.IsZero() {
			t.Fatalf("%T empty HeadHash() = %s", store, h.Short())
		}
		blocks := buildChain(t, store, 3, 2)
		if got, want := store.HeadHash(), blocks[2].Hash(); got != want {
			t.Fatalf("%T HeadHash() = %s, head block hashes to %s", store, got.Short(), want.Short())
		}
		recs := testRecords(t, 1, 50)
		next, err := NewBlockWithRoot(store.Height(), store.HeadHash(), recs, 0, ComputeTxRoot(recs))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := NewBlock(&blocks[2], recs, 0); next.Hash() != want.Hash() {
			t.Fatalf("%T NewBlockWithRoot over the head differs from NewBlock", store)
		}
		if err := store.AppendFrame(next, next.Hash(), next.EncodeBytes()); err != nil {
			t.Fatal(err)
		}
		if store.HeadHash() != next.Hash() {
			t.Fatalf("%T HeadHash() after AppendFrame is not the appended block's", store)
		}
	}
	head := fs.HeadHash()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs2.Close() }()
	if fs2.HeadHash() != head {
		t.Fatalf("reopened HeadHash() = %s, want %s", fs2.HeadHash().Short(), head.Short())
	}
}

// TestFileStoreWritesFrameAsGiven: a FileStore stores the frame its
// caller hands AppendFrame — the proposer's Block.Seal output, or the
// bytes a replica received — and that frame is exactly the block's
// re-encoding, so reading it back and reopening give the same chain.
func TestFileStoreWritesFrameAsGiven(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	_, priv := testKey(t, 2)
	var frames [][]byte
	for i := 0; i < 4; i++ {
		recs := testRecords(t, 2+i, uint64(10*i+1))
		b, err := NewBlockWithRoot(fs.Height(), fs.HeadHash(), recs, 0, ComputeTxRoot(recs))
		if err != nil {
			t.Fatal(err)
		}
		h, frame := b.Seal("governor/0", priv)
		if i%2 == 1 { // a replica: append what it received
			rb, rcv, err := ReceiveBlock(frame, crypto.NewMerkleBuilder(8))
			if err != nil {
				t.Fatal(err)
			}
			b, h = rb, rcv.Hash
		}
		if err := fs.AppendFrame(b, h, frame); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	check := func(fs *FileStore) {
		t.Helper()
		for i, want := range frames {
			serial := uint64(i + 1)
			stored, _, _, err := fs.readFrameAt(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fs.Get(serial)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored, want) || !bytes.Equal(stored, b.EncodeBytes()) {
				t.Fatalf("block %d: stored frame is not the appended frame and its re-encoding", serial)
			}
		}
	}
	check(fs)
	head := fs.HeadHash()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fs2.Close() }()
	check(fs2)
	if fs2.HeadHash() != head {
		t.Fatalf("reopened HeadHash() = %s, want %s", fs2.HeadHash().Short(), head.Short())
	}
}

func TestAppendRejectsSerialSkip(t *testing.T) {
	store := NewMemoryStore()
	blocks := buildChain(t, store, 1, 1)
	skip, err := NewBlock(&blocks[0], testRecords(t, 1, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	skip.Serial = 5 // No Skipping violation
	if err := store.Append(skip); !errors.Is(err, ErrBadSerial) {
		t.Fatalf("Append() error = %v, want ErrBadSerial", err)
	}
}

func TestAppendRejectsBadPrevHash(t *testing.T) {
	store := NewMemoryStore()
	buildChain(t, store, 1, 1)
	bad, err := NewBlock(nil, testRecords(t, 1, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	bad.Serial = 2
	bad.PrevHash = crypto.Sum([]byte("forged history")) // Chain Integrity violation
	if err := store.Append(bad); !errors.Is(err, ErrBadPrevHash) {
		t.Fatalf("Append() error = %v, want ErrBadPrevHash", err)
	}
}

func TestAppendRejectsNonZeroGenesisPrev(t *testing.T) {
	store := NewMemoryStore()
	b, err := NewBlock(nil, testRecords(t, 1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.PrevHash = crypto.Sum([]byte("x"))
	if err := store.Append(b); !errors.Is(err, ErrBadPrevHash) {
		t.Fatalf("Append() error = %v, want ErrBadPrevHash", err)
	}
}

func TestVerifyChainAcceptsGoodChain(t *testing.T) {
	store := NewMemoryStore()
	buildChain(t, store, 8, 4)
	if err := VerifyChain(store); err != nil {
		t.Fatalf("VerifyChain() error = %v", err)
	}
}

func TestVerifyChainEmptyOK(t *testing.T) {
	if err := VerifyChain(NewMemoryStore()); err != nil {
		t.Fatalf("VerifyChain(empty) error = %v", err)
	}
}

// corruptibleStore wraps MemoryStore to hand out tampered blocks,
// modelling a corrupted replica.
type corruptibleStore struct {
	*MemoryStore
	tamper func(b *Block)
	at     uint64
}

func (c *corruptibleStore) Get(s uint64) (Block, error) {
	b, err := c.MemoryStore.Get(s)
	if err != nil {
		return b, err
	}
	if s == c.at {
		c.tamper(&b)
	}
	return b, nil
}

func TestVerifyChainDetectsTampering(t *testing.T) {
	tests := []struct {
		name   string
		tamper func(b *Block)
	}{
		{"record dropped", func(b *Block) { b.Records = b.Records[:1]; b.TxRoot = ComputeTxRoot(b.Records) }},
		{"txroot forged", func(b *Block) { b.TxRoot = crypto.Sum([]byte("x")) }},
		{"status flipped", func(b *Block) { b.Records[0].Status = tx.StatusInvalid; b.TxRoot = ComputeTxRoot(b.Records) }},
		{"serial rewritten", func(b *Block) { b.Serial = 9 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mem := NewMemoryStore()
			buildChain(t, mem, 4, 3)
			store := &corruptibleStore{MemoryStore: mem, tamper: tt.tamper, at: 2}
			if err := VerifyChain(store); err == nil {
				t.Fatal("VerifyChain() accepted a tampered chain")
			}
		})
	}
}

func TestFileStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.dat")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("OpenFileStore() error = %v", err)
	}
	blocks := buildChain(t, fs, 6, 2)
	if err := fs.Close(); err != nil {
		t.Fatalf("Close() error = %v", err)
	}

	// Reopen and verify every block survived.
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen error = %v", err)
	}
	defer func() {
		if err := fs2.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	if fs2.Height() != 6 {
		t.Fatalf("reopened Height() = %d, want 6", fs2.Height())
	}
	for _, want := range blocks {
		got, err := fs2.Get(want.Serial)
		if err != nil {
			t.Fatalf("Get(%d) error = %v", want.Serial, err)
		}
		if got.Hash() != want.Hash() {
			t.Fatalf("block %d changed across restart", want.Serial)
		}
	}
	if err := VerifyChain(fs2); err != nil {
		t.Fatalf("VerifyChain(reopened) error = %v", err)
	}
	// The chain must keep accepting appends after reload.
	next, err := NewBlock(&blocks[len(blocks)-1], testRecords(t, 1, 999), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.Append(next); err != nil {
		t.Fatalf("Append() after reopen error = %v", err)
	}
}

func TestFileStoreRejectsBadAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.dat")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := fs.Close(); err != nil {
			t.Errorf("Close() error = %v", err)
		}
	}()
	buildChain(t, fs, 1, 1)
	bad, err := NewBlock(nil, testRecords(t, 1, 50), 0)
	if err != nil {
		t.Fatal(err)
	}
	bad.Serial = 3
	if err := fs.Append(bad); !errors.Is(err, ErrBadSerial) {
		t.Fatalf("Append() error = %v, want ErrBadSerial", err)
	}
}

func TestFileStoreDetectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.dat")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	buildChain(t, fs, 2, 2)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte mid-segment: the damaged frame is followed by real
	// data, so it is corruption, not a torn tail, and open must fail —
	// naming the segment and offset so an operator can act on it.
	seg := filepath.Join(path, segmentName(1))
	if err := flipByte(seg, 20); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFileStore(path)
	if err == nil {
		t.Fatal("OpenFileStore() accepted a corrupted chain segment")
	}
	if !errors.Is(err, ErrCorruptChain) {
		t.Fatalf("OpenFileStore() error = %v, want ErrCorruptChain", err)
	}
	if !strings.Contains(err.Error(), filepath.Base(seg)) || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("OpenFileStore() error %q does not name the segment and offset", err)
	}
}

func flipByte(path string, off int) error {
	data, err := readFile(path)
	if err != nil {
		return err
	}
	if off >= len(data) {
		off = len(data) - 1
	}
	data[off] ^= 0xff
	return writeFile(path, data)
}

func readFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// TestQuickChainIntegrity: appending any sequence of blocks built via
// NewBlock keeps VerifyChain green.
func TestQuickChainIntegrity(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		store := NewMemoryStore()
		var prev *Block
		for i, sz := range sizes {
			b, err := NewBlock(prev, testRecords(t, int(sz%5), uint64(i*10)), 0)
			if err != nil {
				return false
			}
			if err := store.Append(b); err != nil {
				return false
			}
			bb := b
			prev = &bb
		}
		return VerifyChain(store) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBlockHash64(b *testing.B) {
	seed := make([]byte, crypto.SeedSize)
	_, priv, err := crypto.KeyFromSeed(seed)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{
			Signed: tx.Sign(tx.Transaction{Provider: "provider/0", Seq: uint64(i), Kind: "b", Payload: []byte("p")}, priv),
			Label:  tx.LabelValid,
			Status: tx.StatusValid,
		}
	}
	blk, err := NewBlock(nil, recs, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = blk.Hash()
	}
}
