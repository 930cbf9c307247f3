package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/tx"
)

// TestQuickDecodeNeverPanics feeds random byte strings to the block
// decoder: it must reject or accept gracefully, never panic, and any
// accepted block must re-encode to a decodable form.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		blk, err := DecodeBlockBytes(b)
		if err != nil {
			return true
		}
		// Extremely unlikely, but if random bytes decode, the block
		// must round trip.
		_, err = DecodeBlockBytes(blk.EncodeBytes())
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeMutatedBlock flips one byte of a real block encoding:
// the result must either fail to decode or decode to a block whose
// hash differs (the mutation cannot be silent).
func TestQuickDecodeMutatedBlock(t *testing.T) {
	base, err := NewBlock(nil, testRecords(t, 3, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := base.EncodeBytes()
	want := base.Hash()
	f := func(pos uint16, bit uint8) bool {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[int(pos)%len(mut)] ^= 1 << (bit % 8)
		blk, err := DecodeBlockBytes(mut)
		if err != nil {
			return true
		}
		return blk.Hash() != want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBlockDecode feeds the block decoder — what a governor or provider
// runs on every block frame any deployment member sends, and segment
// replay on every stored frame — arbitrary bytes: it must never panic,
// never return more records than the input could hold (the count is
// attacker-chosen and sizes an allocation), whatever it accepts must
// re-encode to the same bytes, and the hash, root and IDs a replica
// takes from them must equal their recomputation from the block.
func FuzzBlockDecode(f *testing.F) {
	for _, seed := range blockSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := DecodeBlockBytes(p)
		if err != nil {
			return
		}
		if len(b.Records) > len(p)/minRecordBytes {
			t.Fatalf("%d records decoded from %d bytes", len(b.Records), len(p))
		}
		if again := b.EncodeBytes(); !bytes.Equal(again, p) {
			t.Fatalf("accepted input does not re-encode to itself:\n in %x\nout %x", p, again)
		}
		_, rcv, err := ReceiveBlock(p, crypto.NewMerkleBuilder(0))
		if err != nil {
			t.Fatalf("ReceiveBlock refuses what DecodeBlockBytes accepts: %v", err)
		}
		if rcv.Hash != b.Hash() || rcv.Root != ComputeTxRoot(b.Records) || len(rcv.IDs) != len(b.Records) {
			t.Fatalf("received hash %s root %s with %d IDs; recomputed %s %s for %d records",
				rcv.Hash.Short(), rcv.Root.Short(), len(rcv.IDs), b.Hash().Short(), ComputeTxRoot(b.Records).Short(), len(b.Records))
		}
		for i, rec := range b.Records {
			if rcv.IDs[i] != rec.Signed.ID() {
				t.Fatalf("record %d: ID %s, recomputed %s", i, rcv.IDs[i].Short(), rec.Signed.ID().Short())
			}
		}
	})
}

// FuzzOwnRecordsDecode: a provider's filtered decode accepts exactly
// the frames the full decode accepts, and returns the same records of
// its own, with their IDs.
func FuzzOwnRecordsDecode(f *testing.F) {
	for _, seed := range blockSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		full, ferr := DecodeBlockBytes(p)
		for _, provider := range []identity.NodeID{"provider/0", "provider/1"} {
			own, ids, err := DecodeOwnRecords(p, provider)
			if (err == nil) != (ferr == nil) {
				t.Fatalf("%s: filtered decode error %v, full decode error %v", provider, err, ferr)
			}
			if err != nil {
				continue
			}
			var want []Record
			for _, rec := range full.Records {
				if rec.Signed.Tx.Provider == provider {
					want = append(want, rec)
				}
			}
			if len(own.Records) != len(want) || len(ids) != len(want) {
				t.Fatalf("%s: %d records and %d IDs, want %d", provider, len(own.Records), len(ids), len(want))
			}
			for i, rec := range own.Records {
				if !reflect.DeepEqual(rec, want[i]) || ids[i] != want[i].Signed.ID() {
					t.Fatalf("%s: record %d differs from the full decode's", provider, i)
				}
			}
			own.Records = full.Records
			if !reflect.DeepEqual(own, full) {
				t.Fatalf("%s: block fields differ from the full decode's", provider)
			}
		}
	})
}

// blockSeeds are the block fuzzers' seeds: a signed block of one
// provider's records, one that interleaves two providers', half of the
// first, and a hostile count.
func blockSeeds(f *testing.F) [][]byte {
	_, priv := testKey(f, 2)
	_, other := testKey(f, 3)
	one, err := NewBlock(nil, testRecords(f, 3, 0), 0)
	if err != nil {
		f.Fatal(err)
	}
	one.SignAs("governor/0", priv)
	mixed := testRecords(f, 4, 10)
	for i := 1; i < len(mixed); i += 2 {
		t := mixed[i].Signed.Tx
		t.Provider = "provider/1"
		mixed[i].Signed = tx.Sign(t, other)
	}
	two, err := NewBlock(&one, mixed, 0)
	if err != nil {
		f.Fatal(err)
	}
	two.SignAs("governor/1", priv)
	enc := one.EncodeBytes()
	return [][]byte{enc, enc[:len(enc)/2], two.EncodeBytes(), hostileBlockFrame()}
}

// minRecordBytes is the shortest record in a block: a transaction
// list element (batch position, leaf index, transaction: 22 bytes) and
// the governor's judgment.
const minRecordBytes = 22 + minJudgmentBytes

// hostileBlockFrame is 24 bytes claiming 2^20 records.
func hostileBlockFrame() []byte {
	e := codec.NewEncoder(0)
	e.PutString("repchain/block/v2")
	e.PutUint64(1)
	e.PutUvarint(0) // no batches
	e.PutUvarint(1 << 20)
	return e.Bytes()
}

// allocatedBytes returns how many bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecodeBlockRejectsHostileCount(t *testing.T) {
	var err error
	n := allocatedBytes(func() { _, err = DecodeBlockBytes(hostileBlockFrame()) })
	if err == nil || n >= 64<<10 {
		t.Fatalf("hostile block frame: error %v after allocating %d bytes, want an error under 64 KiB", err, n)
	}
}

// FuzzSegmentOpen throws arbitrary bytes on disk as the newest chain
// segment — the only one, or the one after a genuine sealed chain-1
// holding blocks 1..sealedBlocks — and opens the store over it.
// Whatever the bytes are, open must either recover to a consistent
// store (verifiable chain at no less than the sealed height, working
// Head/Get) or fail with an error — never panic, never serve a chain
// that fails verification. Bytes shorter than a header, or all zero,
// are a segment whose creation never reached disk: open must drop
// them and recover the sealed height exactly.
func FuzzSegmentOpen(f *testing.F) {
	const sealedBlocks = 3
	// Blocks 1..3 fill chain-1; a one-byte roll threshold then seals it
	// and starts chain-4 for block 4.
	dir := f.TempDir()
	var prev *Block
	for _, segBytes := range []int64{1 << 20, 1 << 20, 1 << 20, 1} {
		fs, err := OpenFileStoreOptions(dir, StoreOptions{SegmentBytes: segBytes})
		if err != nil {
			f.Fatal(err)
		}
		b, err := NewBlock(prev, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		if err := fs.Append(b); err != nil {
			f.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			f.Fatal(err)
		}
		prev = &b
	}
	sealed, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	newest, err := os.ReadFile(filepath.Join(dir, segmentName(sealedBlocks+1)))
	if err != nil {
		f.Fatal(err)
	}
	for _, afterSealed := range []bool{false, true} {
		seed := newest
		if !afterSealed {
			seed = sealed
		}
		f.Add(seed, afterSealed)
		f.Add(seed[:len(seed)-3], afterSealed)
		f.Add(seed[:segHeaderSize], afterSealed)
		f.Add([]byte(segMagic), afterSealed)
		f.Add(seed[:5], afterSealed)
		f.Add([]byte{}, afterSealed)
		f.Add(make([]byte, 300), afterSealed)
	}

	f.Fuzz(func(t *testing.T, data []byte, afterSealed bool) {
		dir := filepath.Join(t.TempDir(), "chain")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		base := uint64(0)
		if afterSealed {
			base = sealedBlocks
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), sealed, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(base+1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		torn := len(data) < segHeaderSize || allZero(data)
		fs, err := OpenFileStoreOptions(dir, StoreOptions{SegmentBytes: 1 << 20})
		if err != nil {
			if torn {
				t.Fatalf("open refused a segment whose creation never reached disk: %v", err)
			}
			return // rejected: fine
		}
		defer func() { _ = fs.Close() }()
		if err := VerifyChain(fs); err != nil {
			t.Fatalf("open accepted a segment whose chain fails verification: %v", err)
		}
		h := fs.Height()
		if h < base || torn && h != base {
			t.Fatalf("Height() = %d over %d sealed blocks (torn creation %v)", h, base, torn)
		}
		if h > 0 {
			if _, err := fs.Head(); err != nil {
				t.Fatalf("Head() failed at height %d: %v", h, err)
			}
			if _, err := fs.Get(h); err != nil {
				t.Fatalf("Get(head) failed: %v", err)
			}
		}
	})
}

// FuzzSnapshotLoad drives the snapshot decoder and the open-time
// snapshot selection with arbitrary file contents: a corrupt snapshot
// must be skipped (never selected, never a panic) and the store must
// still open when the log itself is intact.
func FuzzSnapshotLoad(f *testing.F) {
	good := encodeSnapshot(Snapshot{Height: 3, Head: crypto.Sum([]byte("h")), App: []byte("state")})
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err == nil {
			// Anything that decodes must re-encode canonically.
			if _, err := decodeSnapshot(encodeSnapshot(s)); err != nil {
				t.Fatalf("decoded snapshot does not round trip: %v", err)
			}
		}
		dir := filepath.Join(t.TempDir(), "chain")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		// Drop the fuzzed bytes in as a named snapshot over an empty
		// log: open must only succeed if the snapshot validates, and a
		// validating snapshot decides the recovered height.
		if err := os.WriteFile(filepath.Join(dir, snapshotName(3)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, openErr := OpenFileStore(dir)
		if openErr != nil {
			return
		}
		defer func() { _ = fs.Close() }()
		snap, ok := fs.LatestSnapshot()
		if ok && (snap.Height != 3 || fs.Height() != 3) {
			t.Fatalf("accepted snapshot with height %d (store height %d), file named 3", snap.Height, fs.Height())
		}
	})
}
