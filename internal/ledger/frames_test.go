package ledger

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repchain/internal/crypto"
)

// sealedChain returns n signed block frames that chain from genesis,
// with 1..n records each.
func sealedChain(t *testing.T, n int) [][]byte {
	t.Helper()
	_, priv := testKey(t, 2)
	var frames [][]byte
	height, head := uint64(0), crypto.ZeroHash
	for i := 0; i < n; i++ {
		recs := testRecords(t, 1+i, uint64(10*i+1))
		b, err := NewBlockWithRoot(height, head, recs, 0, ComputeTxRoot(recs))
		if err != nil {
			t.Fatal(err)
		}
		h, frame := b.Seal("governor/0", priv)
		frames = append(frames, frame)
		height, head = b.Serial, h
	}
	return frames
}

// appendReceived appends each frame to s as a replica does: decoded
// with ReceiveBlock, whose block views the frame.
func appendReceived(t *testing.T, s Store, frames [][]byte) {
	t.Helper()
	for _, frame := range frames {
		b, rcv, err := ReceiveBlock(frame, crypto.NewMerkleBuilder(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendFrame(b, rcv.Hash, frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreOwnsAppendedFrames overwrites every frame after appending
// it: a store keeps its own copy, so each Get, the head and VerifyChain
// are unchanged — in memory and on disk alike.
func TestStoreOwnsAppendedFrames(t *testing.T) {
	stores := []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"memory", func(*testing.T) Store { return NewMemoryStore() }},
		{"file", func(t *testing.T) Store {
			fs, err := OpenFileStore(filepath.Join(t.TempDir(), "chain"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = fs.Close() })
			return fs
		}},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			s := st.open(t)
			frames := sealedChain(t, 5)
			want := make([][]byte, len(frames))
			for i, f := range frames {
				want[i] = bytes.Clone(f)
			}
			appendReceived(t, s, frames)
			// The head is decoded before and after the frames are
			// overwritten: neither decoding may read the caller's bytes.
			before, err := s.Head()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range frames {
				for i := range f {
					f[i] = 0xA5
				}
			}
			for i := range want {
				b, err := s.Get(uint64(i + 1))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b.EncodeBytes(), want[i]) {
					t.Fatalf("block %d changed with the appended frame", i+1)
				}
			}
			if !bytes.Equal(before.EncodeBytes(), want[len(want)-1]) {
				t.Fatal("the head changed with the appended frame")
			}
			if err := VerifyChain(s); err != nil {
				t.Fatalf("VerifyChain after overwriting the appended frames: %v", err)
			}
		})
	}
}

// TestMemoryAndFileStoresServeEqualBlocks appends one chain to a
// MemoryStore and to a FileStore spread over several segments and
// reopened, and compares what each serves for every serial.
func TestMemoryAndFileStoresServeEqualBlocks(t *testing.T) {
	frames := sealedChain(t, 9)
	mem := NewMemoryStore()
	appendReceived(t, mem, frames)
	path := filepath.Join(t.TempDir(), "chain")
	fs, err := OpenFileStoreOptions(path, StoreOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendReceived(t, fs, frames)
	compare := func(fs *FileStore) {
		t.Helper()
		for s := uint64(1); s <= uint64(len(frames)); s++ {
			mb, err := mem.Get(s)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := fs.Get(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mb, fb) {
				t.Fatalf("block %d: memory and file stores differ", s)
			}
		}
		mh, err1 := mem.Head()
		fh, err2 := fs.Head()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(mh, fh) || mem.HeadHash() != fs.HeadHash() {
			t.Fatalf("heads differ (%v, %v)", err1, err2)
		}
	}
	compare(fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileStoreOptions(path, StoreOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	compare(reopened)
}
