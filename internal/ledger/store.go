package ledger

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repchain/internal/crypto"
)

// Store is a chain of blocks with the paper's retrieve(s) primitive.
// Implementations are safe for concurrent use. A store keeps blocks as
// frames, its own copy of each: nothing it returns aliases bytes a caller
// handed it (DESIGN.md §4f, "Bytes at rest, views in flight").
type Store interface {
	// Append adds b to the chain, enforcing serial ordering and the
	// previous-hash link.
	Append(b Block) error
	// AppendFrame is Append for a caller that holds b's frame
	// (b.EncodeBytes(): the bytes it received or Block.Seal returned)
	// and h = b.Hash() taken from it. The store keeps a copy of the frame
	// as is, and h becomes the new HeadHash, so b is not re-encoded;
	// neither frame nor b is retained.
	AppendFrame(b Block, h crypto.Hash, frame []byte) error
	// Get returns the block with serial number s (retrieve(s)), decoded
	// from the store's frame: its byte fields are views into that frame,
	// which a caller must not modify.
	Get(s uint64) (Block, error)
	// Head returns the newest block, or ErrNotFound on an empty chain.
	Head() (Block, error)
	// Height returns the newest serial number, zero when empty.
	Height() uint64
	// HeadHash returns the newest block's hash, ZeroHash when empty:
	// the PrevHash the next block carries.
	HeadHash() crypto.Hash
}

// frameHead is a store's newest block: its frame, the store's own, and
// the block decoded from it when first asked for, so a head nobody reads
// is never decoded.
type frameHead struct {
	serial uint64
	frame  []byte
	once   sync.Once
	b      Block
	err    error
}

// block returns the head block, decoding it on the first call.
func (h *frameHead) block() (Block, error) {
	h.once.Do(func() { h.b, h.err = decodeAt(h.frame, h.serial) })
	return h.b, h.err
}

// decodeAt decodes frame, which the store filed as block serial.
func decodeAt(frame []byte, serial uint64) (Block, error) {
	b, err := DecodeBlockBytes(frame)
	if err != nil {
		return Block{}, fmt.Errorf("block %d: %w", serial, err)
	}
	if b.Serial != serial {
		return Block{}, fmt.Errorf("frame filed as block %d holds serial %d: %w", serial, b.Serial, ErrCorruptChain)
	}
	return b, nil
}

// MemoryStore keeps the chain in memory, as the blocks' frames: a frame
// is smaller than its decoded block and holds no pointers for the
// garbage collector to trace. Get decodes the frame it serves.
type MemoryStore struct {
	mu       sync.RWMutex
	frames   [][]byte    // guarded by mu; block s's frame at s-1
	head     *frameHead  // guarded by mu; nil on an empty chain
	headHash crypto.Hash // guarded by mu; hash of the last block
}

var _ Store = (*MemoryStore)(nil)

// NewMemoryStore returns an empty in-memory chain.
func NewMemoryStore() *MemoryStore { return &MemoryStore{} }

// Append implements Store.
func (s *MemoryStore) Append(b Block) error { return s.appendOwned(b, b.Hash(), b.EncodeBytes()) }

// AppendFrame implements Store.
func (s *MemoryStore) AppendFrame(b Block, h crypto.Hash, frame []byte) error {
	return s.appendOwned(b, h, bytes.Clone(frame))
}

// appendOwned is AppendFrame for a frame no one else holds.
func (s *MemoryStore) appendOwned(b Block, h crypto.Hash, frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkLink(b, uint64(len(s.frames)), s.headHash); err != nil {
		return err
	}
	s.frames = append(s.frames, frame)
	s.head = &frameHead{serial: b.Serial, frame: frame}
	s.headHash = h
	return nil
}

// Get implements Store.
func (s *MemoryStore) Get(serial uint64) (Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if serial == 0 || serial > uint64(len(s.frames)) {
		return Block{}, fmt.Errorf("serial %d at height %d: %w", serial, len(s.frames), ErrNotFound)
	}
	if serial == s.head.serial {
		return s.head.block()
	}
	return decodeAt(s.frames[serial-1], serial)
}

// Head implements Store.
func (s *MemoryStore) Head() (Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.head == nil {
		return Block{}, fmt.Errorf("empty chain: %w", ErrNotFound)
	}
	return s.head.block()
}

// Height implements Store.
func (s *MemoryStore) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.frames))
}

// HeadHash implements Store.
func (s *MemoryStore) HeadHash() crypto.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.headHash
}

// checkLink enforces the No Skipping and Chain Integrity invariants for
// appending b to a chain of the given height and head hash.
func checkLink(b Block, height uint64, head crypto.Hash) error {
	if b.Serial != height+1 {
		return fmt.Errorf("append serial %d at height %d: %w", b.Serial, height, ErrBadSerial)
	}
	if height == 0 {
		if !b.PrevHash.IsZero() {
			return fmt.Errorf("genesis block with nonzero previous hash: %w", ErrBadPrevHash)
		}
	} else if b.PrevHash != head {
		return fmt.Errorf("block %d previous hash %s, head is %s: %w",
			b.Serial, b.PrevHash.Short(), head.Short(), ErrBadPrevHash)
	}
	return nil
}

// PrunedStore is implemented by stores that may have discarded a
// prefix of the chain behind a snapshot horizon.
type PrunedStore interface {
	// FirstAvailable returns the lowest serial Get can still serve
	// (1 when nothing has been pruned).
	FirstAvailable() uint64
	// SnapshotAnchor returns the latest durable snapshot's height and
	// head hash; ok is false when no snapshot exists.
	SnapshotAnchor() (height uint64, head crypto.Hash, ok bool)
}

// VerifyChain replays the retrievable chain in store, checking serial
// ordering, previous-hash links, and transaction-root commitments. It
// is the auditor's offline check of the Chain Integrity and No
// Skipping properties.
//
// On a PrunedStore the verification starts at the first available
// block and anchors against the snapshot instead of genesis: the hash
// chain computed over the surviving blocks must reproduce the
// snapshot's head hash at the snapshot height, which transitively
// certifies every link back to the recovery point.
func VerifyChain(store Store) error {
	height := store.Height()
	first := uint64(1)
	var anchorHeight uint64
	var anchorHead crypto.Hash
	haveAnchor := false
	if ps, ok := store.(PrunedStore); ok {
		first = ps.FirstAvailable()
		anchorHeight, anchorHead, haveAnchor = ps.SnapshotAnchor()
	}
	if first > 1 && (!haveAnchor || first > anchorHeight+1) {
		return fmt.Errorf("blocks before %d pruned with no covering snapshot: %w", first, ErrCorruptChain)
	}
	var prevHash crypto.Hash
	prevKnown := first == 1
	if haveAnchor && first == anchorHeight+1 {
		prevHash, prevKnown = anchorHead, true
	}
	for s := first; s <= height; s++ {
		b, err := store.Get(s)
		if err != nil {
			return fmt.Errorf("retrieve %d: %w", s, err)
		}
		if b.Serial != s {
			return fmt.Errorf("block at position %d has serial %d: %w", s, b.Serial, ErrCorruptChain)
		}
		if prevKnown && b.PrevHash != prevHash {
			return fmt.Errorf("block %d previous hash mismatch: %w", s, ErrCorruptChain)
		}
		if got := ComputeTxRoot(b.Records); got != b.TxRoot {
			return fmt.Errorf("block %d transaction root mismatch: %w", s, ErrCorruptChain)
		}
		prevHash, prevKnown = b.Hash(), true
		if haveAnchor && s == anchorHeight && prevHash != anchorHead {
			return fmt.Errorf("block %d hash does not match the snapshot anchor: %w", s, ErrCorruptChain)
		}
	}
	return nil
}

// StoreOptions tunes the segmented FileStore.
type StoreOptions struct {
	// SegmentBytes is the roll threshold: once the active segment
	// exceeds it, the segment is sealed (flushed, fsynced, closed) and
	// the next append starts a new one. Zero means the 4 MiB default.
	// A single oversized block still gets written — a segment always
	// holds at least one frame.
	SegmentBytes int64
}

const (
	defaultSegmentBytes = 4 << 20
	// snapshotKeep is how many snapshot generations WriteSnapshot
	// retains: the newest plus one fallback.
	snapshotKeep = 2
)

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	return o
}

// RecoveryInfo reports what OpenFileStore did to bring the store up.
type RecoveryInfo struct {
	// SnapshotHeight is the height of the snapshot recovery loaded
	// from (0 = opened with no snapshot).
	SnapshotHeight uint64
	// SnapshotsSkipped counts snapshot files that failed validation
	// and were passed over for an older generation.
	SnapshotsSkipped int
	// BlocksIndexed counts frames at or below the snapshot horizon,
	// indexed from their frame headers without a CRC check or decode.
	BlocksIndexed int
	// BlocksReplayed counts blocks decoded and link-verified (the log
	// suffix above the snapshot horizon).
	BlocksReplayed int
	// TornBytesDropped is how many bytes of the newest segment were
	// discarded as a torn write: a torn tail, or the whole file when
	// its creation never reached disk.
	TornBytesDropped int64
}

// FileStore is the segmented append-only on-disk chain. The directory
// holds fixed-size segments of length+CRC framed block encodings
// (chain-<first>.seg) and atomic state snapshots
// (snapshot-<height>.snap).
//
// FileStore does not keep the chain in memory: it holds the head block's
// frame plus the per-segment frame offsets its open scan builds, reads
// every other block from disk on demand, and on open decodes only the
// log suffix above the latest valid snapshot.
type FileStore struct {
	mu   sync.RWMutex
	dir  string
	opts StoreOptions

	segments []*segmentInfo // guarded by mu; serial order, last is active
	active   *os.File       // guarded by mu; nil until the first append needs it
	w        *bufio.Writer  // guarded by mu

	height   uint64      // guarded by mu
	headHash crypto.Hash // guarded by mu; hash of block height
	head     *frameHead  // guarded by mu; the block at height, nil when pruned or empty
	pruned   uint64      // guarded by mu; serials ≤ pruned are gone

	snap     Snapshot // guarded by mu; latest durable snapshot
	haveSnap bool     // guarded by mu
	gens     []uint64 // guarded by mu; heights of the snapshot files on disk, ascending

	// write is the snapshot write started last, until a call that
	// returns its outcome collects it; written is its done channel,
	// kept after the collection for the calls that only wait.
	write   *snapshotWrite // guarded by mu
	written chan struct{}  // guarded by mu; nil before the first write

	recovery RecoveryInfo // set at open, immutable afterwards
}

// snapshotWrite is one snapshot's durable write, run by a goroutine
// behind the caller (StartSnapshot).
type snapshotWrite struct {
	snap Snapshot
	// pruneBelow is, for a write with a prune, the first serial of the
	// segment that was the last at the capture, so what the prune deletes
	// does not depend on how far appends got meanwhile; 0 for no prune.
	pruneBelow uint64

	done   chan struct{} // closed once the fields below are final
	pruned int
	err    error
}

var (
	_ Store       = (*FileStore)(nil)
	_ PrunedStore = (*FileStore)(nil)
)

// OpenFileStore opens or creates the segmented chain store at path
// with default options.
func OpenFileStore(path string) (*FileStore, error) {
	return OpenFileStoreOptions(path, StoreOptions{})
}

// OpenFileStoreOptions is OpenFileStore with explicit tuning.
//
// Recovery procedure: load the newest snapshot that validates, walk
// every surviving segment's frame headers to index it, and decode only
// the frames above the snapshot height, verifying their hash links
// from the snapshot's head hash. A torn tail — an incomplete or
// checksum-failing final frame of the newest segment — is truncated,
// and a newest segment whose creation never reached disk (shorter than
// its header, or nothing but zero bytes) is removed; recovery then
// proceeds. Corruption anywhere else fails open with the segment file
// and byte offset of the bad frame so an operator can inspect or
// truncate manually.
func OpenFileStoreOptions(path string, opts StoreOptions) (*FileStore, error) {
	opts = opts.withDefaults()
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("chain path %s is a file, not a segment directory: %w", path, ErrCorruptChain)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("open chain dir: %w", err)
	}
	fs := &FileStore{dir: path, opts: opts}
	if err := fs.load(); err != nil {
		return nil, err
	}
	return fs, nil
}

//repchain:lockguard-ok construction-time only: load runs before the store is reachable by any other goroutine
func (fs *FileStore) load() error {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("read chain dir: %w", err)
	}
	var segFirsts, snapHeights []uint64
	for _, e := range entries {
		name := e.Name()
		// An interrupted atomic write, or an offset index file older
		// stores kept beside sealed segments.
		if strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, "chain-") && strings.HasSuffix(name, ".idx") {
			_ = os.Remove(filepath.Join(fs.dir, name))
			continue
		}
		if first, ok := parseSegmentName(name); ok {
			segFirsts = append(segFirsts, first)
		}
		if h, ok := parseSnapshotName(name); ok {
			snapHeights = append(snapHeights, h)
		}
	}
	sort.Slice(segFirsts, func(i, j int) bool { return segFirsts[i] < segFirsts[j] })

	slices.Sort(snapHeights)
	fs.gens = slices.Clone(snapHeights)
	snap, haveSnap, skipped := loadLatestSnapshot(fs.dir, snapHeights)
	fs.snap, fs.haveSnap = snap, haveSnap
	fs.recovery.SnapshotsSkipped = skipped
	horizon := uint64(0)
	if haveSnap {
		horizon = snap.Height
		fs.recovery.SnapshotHeight = snap.Height
		// Frames at or below the horizon are only indexed, never
		// decoded, so the first replayed block (horizon+1) must link
		// against the snapshot's head hash instead of a recomputed one.
		fs.headHash = snap.Head
	}

	if len(segFirsts) == 0 {
		if haveSnap {
			// Fully pruned log: the snapshot is the whole state.
			fs.height, fs.headHash, fs.pruned = snap.Height, snap.Head, snap.Height
		}
		return nil
	}
	if segFirsts[0] > 1 && (!haveSnap || segFirsts[0] > horizon+1) {
		return fmt.Errorf("chain dir %s: first segment starts at %d with no covering snapshot: %w",
			fs.dir, segFirsts[0], ErrCorruptChain)
	}
	fs.pruned = segFirsts[0] - 1
	fs.height = fs.pruned

	for i, first := range segFirsts {
		lastSeg := i == len(segFirsts)-1
		seg := &segmentInfo{path: filepath.Join(fs.dir, segmentName(first)), first: first}
		if first != fs.height+1 {
			return fmt.Errorf("segment %s starts at %d, previous segment ends at %d: %w",
				filepath.Base(seg.path), first, fs.height, ErrCorruptChain)
		}
		if err := fs.scanSegment(seg, horizon, lastSeg); err != nil {
			if lastSeg && fs.dropTornCreation(seg.path) {
				break // the previous segment, if any, is the active one
			}
			return err
		}
		fs.segments = append(fs.segments, seg)
	}

	if fs.haveSnap && fs.height < fs.snap.Height {
		return fmt.Errorf("chain dir %s: log height %d behind snapshot height %d (snapshots are only written over fsynced logs): %w",
			fs.dir, fs.height, fs.snap.Height, ErrCorruptChain)
	}
	if len(fs.segments) == 0 {
		return nil // the only segment was a torn creation
	}

	// Reopen the newest segment for appending.
	last := fs.segments[len(fs.segments)-1]
	f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("open active segment: %w", err)
	}
	if _, err := f.Seek(last.size, io.SeekStart); err != nil {
		_ = f.Close()
		return fmt.Errorf("seek active segment end: %w", err)
	}
	fs.active = f
	fs.w = bufio.NewWriter(f)

	// Make sure Head can answer: the head block is always in the
	// newest segments (pruning never removes the active one), but if
	// the whole suffix sat below the horizon it was only indexed, not
	// decoded.
	if fs.head == nil && fs.height > fs.pruned {
		payload, _, _, err := fs.readFrameAt(fs.height)
		if err == nil {
			fs.head = &frameHead{serial: fs.height, frame: payload}
			_, err = fs.head.block()
		}
		if err != nil {
			return fmt.Errorf("read head block: %w", err)
		}
		fs.headHash = fs.head.b.Hash()
	}
	return nil
}

// scanSegment walks a segment's frames, indexing every frame and
// decoding + link-verifying those above the snapshot horizon; frames
// at or below it are skipped by their headers alone. In the newest
// segment a torn tail is truncated; everywhere else any bad frame is
// fatal, reported with its segment and offset.
//
//repchain:lockguard-ok construction-time only: called from load before the store is shared
func (fs *FileStore) scanSegment(seg *segmentInfo, horizon uint64, lastSeg bool) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("segment %s: %w", filepath.Base(seg.path), err)
	}
	defer func() { _ = f.Close() }()
	r := bufio.NewReaderSize(f, 1<<16)
	first, err := readSegmentHeader(r, seg.path)
	if err != nil {
		return err
	}
	if first != seg.first {
		return fmt.Errorf("segment %s header claims first serial %d: %w", filepath.Base(seg.path), first, ErrCorruptChain)
	}

	off := int64(segHeaderSize)
	for {
		serial := seg.first + uint64(seg.count())
		verify := serial > horizon
		payload, n, res := readFrame(r, verify)
		if res == scanEOF && payload == nil && n == 0 {
			seg.size = off // clean end of segment
			return nil
		}
		bad := res != scanEOF
		var blk Block
		if !bad && verify {
			b, derr := DecodeBlockBytes(payload)
			switch {
			case derr != nil:
				bad, res = true, scanBadFrame
			case b.Serial != serial:
				bad, res = true, scanBadFrame
			default:
				blk = b
			}
		}
		if bad {
			if lastSeg && verify {
				if torn, terr := fs.tornTail(f, off, n, res); terr != nil {
					return terr
				} else if torn {
					seg.size = off
					return nil
				}
			}
			return fmt.Errorf("segment %s: corrupt frame for block %d at offset %d: %w",
				filepath.Base(seg.path), serial, off, ErrCorruptChain)
		}
		if verify {
			if err := fs.linkBlock(blk, payload); err != nil {
				return fmt.Errorf("segment %s: block %d at offset %d: %w",
					filepath.Base(seg.path), serial, off, err)
			}
			fs.recovery.BlocksReplayed++
		} else {
			fs.height = serial
			fs.recovery.BlocksIndexed++
		}
		seg.offsets = append(seg.offsets, off)
		off += n
	}
}

// tornTail decides whether a bad frame in the newest segment is a
// recoverable torn write: the frame runs past end-of-file, is the
// final frame, or is followed only by zero bytes (a zero-filled
// allocation the crash never overwrote). If so the file is truncated
// at the frame's start and recovery continues; a bad frame followed by
// real data is corruption, not a tear, and stays fatal.
//
//repchain:lockguard-ok construction-time only: called from scanSegment during load
func (fs *FileStore) tornTail(f *os.File, off, n int64, res frameScanResult) (bool, error) {
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	size := fi.Size()
	torn := res == scanTruncated || off+n >= size
	if !torn {
		// Bad frame with data after it: a tear only if everything from
		// the frame start to EOF is zero.
		rest := make([]byte, size-off)
		if _, err := f.ReadAt(rest, off); err != nil {
			return false, err
		}
		torn = allZero(rest)
	}
	if !torn {
		return false, nil
	}
	if err := os.Truncate(f.Name(), off); err != nil {
		return false, fmt.Errorf("truncate torn tail: %w", err)
	}
	fs.recovery.TornBytesDropped += size - off
	return true, nil
}

// dropTornCreation removes a newest segment whose creation never
// reached disk — shorter than its header, or nothing but zero bytes —
// and reports whether it did. A full header with the wrong magic or
// serial is corruption, not a tear, and is left for open to refuse.
//
//repchain:lockguard-ok construction-time only: called from load
func (fs *FileStore) dropTornCreation(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil || len(data) >= segHeaderSize && !allZero(data) {
		return false
	}
	if os.Remove(path) != nil {
		return false
	}
	fs.recovery.TornBytesDropped += int64(len(data))
	return true
}

func allZero(b []byte) bool { return len(bytes.TrimLeft(b, "\x00")) == 0 }

// linkBlock verifies a replayed block, decoded from frame, against the
// running head state and adopts it as the new head.
//
//repchain:lockguard-ok construction-time only: called from scanSegment during load
func (fs *FileStore) linkBlock(b Block, frame []byte) error {
	if b.Serial != fs.height+1 {
		return fmt.Errorf("serial %d at height %d: %w", b.Serial, fs.height, ErrCorruptChain)
	}
	if fs.height == 0 {
		if !b.PrevHash.IsZero() {
			return fmt.Errorf("genesis block with nonzero previous hash: %w", ErrCorruptChain)
		}
	} else if b.PrevHash != fs.headHash {
		return fmt.Errorf("previous hash mismatch: %w", ErrCorruptChain)
	}
	fs.height = b.Serial
	fs.headHash = b.Hash()
	fs.head = &frameHead{serial: b.Serial, frame: frame}
	return nil
}

// Append implements Store, persisting the block before indexing it.
func (fs *FileStore) Append(b Block) error { return fs.appendOwned(b, b.Hash(), b.EncodeBytes()) }

// AppendFrame implements Store.
func (fs *FileStore) AppendFrame(b Block, h crypto.Hash, frame []byte) error {
	return fs.appendOwned(b, h, bytes.Clone(frame))
}

// appendOwned is AppendFrame for a frame no one else holds.
func (fs *FileStore) appendOwned(b Block, h crypto.Hash, frame []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	// Validate against the head state first so a bad block never
	// reaches disk.
	if err := checkLink(b, fs.height, fs.headHash); err != nil {
		return err
	}

	frameLen := int64(frameHeadSize + len(frame))
	seg, err := fs.activeSegmentLocked(frameLen, b.Serial)
	if err != nil {
		return err
	}
	if err := appendFrame(fs.w, frame); err != nil {
		return fmt.Errorf("write block frame: %w", err)
	}
	if err := fs.w.Flush(); err != nil {
		return fmt.Errorf("flush block: %w", err)
	}
	seg.offsets = append(seg.offsets, seg.size)
	seg.size += frameLen

	fs.height = b.Serial
	fs.headHash = h
	fs.head = &frameHead{serial: b.Serial, frame: frame}
	return nil
}

// activeSegmentLocked returns the segment the next frame should go to,
// sealing and rolling the current one when the new frame would push it
// past the size threshold. Callers hold mu.
func (fs *FileStore) activeSegmentLocked(frameLen int64, serial uint64) (*segmentInfo, error) {
	if n := len(fs.segments); n > 0 && fs.active != nil {
		seg := fs.segments[n-1]
		if seg.size+frameLen <= fs.opts.SegmentBytes || seg.count() == 0 {
			return seg, nil
		}
		if err := fs.sealActiveLocked(); err != nil {
			return nil, err
		}
	}
	seg := &segmentInfo{
		path:  filepath.Join(fs.dir, segmentName(serial)),
		first: serial,
		size:  segHeaderSize,
	}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("create segment: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := writeSegmentHeader(w, serial); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("write segment header: %w", err)
	}
	fs.active, fs.w = f, w
	fs.segments = append(fs.segments, seg)
	return seg, nil
}

// sealActiveLocked flushes, fsyncs, and closes the active segment, if
// any. Callers hold mu.
func (fs *FileStore) sealActiveLocked() error {
	if fs.active == nil {
		return nil
	}
	if err := fs.w.Flush(); err != nil {
		return fmt.Errorf("flush segment: %w", err)
	}
	if err := fs.active.Sync(); err != nil {
		return fmt.Errorf("sync segment: %w", err)
	}
	if err := fs.active.Close(); err != nil {
		return fmt.Errorf("close segment: %w", err)
	}
	fs.active, fs.w = nil, nil
	return nil
}

// Get implements Store. The head comes from memory; every other block
// is read from its segment at the frame offset open or Append recorded.
// Serials at or below the prune horizon fail with ErrPruned.
func (fs *FileStore) Get(serial uint64) (Block, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if serial == 0 || serial > fs.height {
		return Block{}, fmt.Errorf("serial %d at height %d: %w", serial, fs.height, ErrNotFound)
	}
	if serial <= fs.pruned {
		return Block{}, fmt.Errorf("serial %d at or below prune horizon %d: %w", serial, fs.pruned, ErrPruned)
	}
	if serial == fs.height {
		return fs.head.block()
	}
	return fs.readBlockAt(serial)
}

// readBlockAt reads one block from its segment file. Callers hold at
// least an RLock; every append flushes, so file contents are current.
//
//repchain:lockguard-ok read-only index walk; callers hold mu or RLock, and load runs construction-time
func (fs *FileStore) readBlockAt(serial uint64) (Block, error) {
	payload, seg, off, err := fs.readFrameAt(serial)
	if err != nil {
		return Block{}, err
	}
	b, err := decodeAt(payload, serial)
	if err != nil {
		return Block{}, fmt.Errorf("segment %s at offset %d: %w", filepath.Base(seg.path), off, err)
	}
	return b, nil
}

// readFrameAt returns block serial's frame as stored, with its segment
// and offset, under readBlockAt's locking.
//
//repchain:lockguard-ok read-only index walk; callers hold mu or RLock, and load runs construction-time
func (fs *FileStore) readFrameAt(serial uint64) ([]byte, *segmentInfo, int64, error) {
	i := sort.Search(len(fs.segments), func(i int) bool { return fs.segments[i].first > serial }) - 1
	if i < 0 {
		return nil, nil, 0, fmt.Errorf("serial %d below first segment: %w", serial, ErrNotFound)
	}
	seg := fs.segments[i]
	if serial < seg.first || serial > seg.last() {
		return nil, nil, 0, fmt.Errorf("serial %d not indexed in segment %s: %w", serial, filepath.Base(seg.path), ErrCorruptChain)
	}
	off := seg.offsets[serial-seg.first]
	f, err := os.Open(seg.path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("segment %s: %w", filepath.Base(seg.path), err)
	}
	defer func() { _ = f.Close() }()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, nil, 0, fmt.Errorf("segment %s: seek %d: %w", filepath.Base(seg.path), off, err)
	}
	payload, _, res := readFrame(bufio.NewReader(f), true)
	if res != scanEOF {
		return nil, nil, 0, fmt.Errorf("segment %s: corrupt frame for block %d at offset %d: %w",
			filepath.Base(seg.path), serial, off, ErrCorruptChain)
	}
	return payload, seg, off, nil
}

// Head implements Store.
func (fs *FileStore) Head() (Block, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.height == 0 {
		return Block{}, fmt.Errorf("empty chain: %w", ErrNotFound)
	}
	if fs.head == nil {
		return Block{}, fmt.Errorf("head block %d behind prune horizon: %w", fs.height, ErrPruned)
	}
	return fs.head.block()
}

// Height implements Store.
func (fs *FileStore) Height() uint64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.height
}

// HeadHash implements Store. After a prune that left no block it is the
// snapshot's head hash.
func (fs *FileStore) HeadHash() crypto.Hash {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.headHash
}

// FirstAvailable implements PrunedStore. It waits for the snapshot
// write in flight, whose prune may move it.
func (fs *FileStore) FirstAvailable() uint64 {
	fs.settle()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.pruned + 1
}

// SnapshotAnchor implements PrunedStore. It waits for the snapshot
// write in flight.
func (fs *FileStore) SnapshotAnchor() (uint64, crypto.Hash, bool) {
	fs.settle()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.snap.Height, fs.snap.Head, fs.haveSnap
}

// CaptureHeight returns, without waiting, the height of the latest
// snapshot capture: that of the write started last while no call has
// collected it, whether it is running, done or failed; else that of the
// latest durable snapshot; 0 with neither. A snapshot cadence compares
// it with Height to learn whether the next capture is due before it
// collects the write (WaitSnapshot).
func (fs *FileStore) CaptureHeight() uint64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.write != nil {
		return fs.write.snap.Height
	}
	return fs.snap.Height
}

// LatestSnapshot returns the newest durable snapshot, if any, once the
// snapshot write in flight has finished.
func (fs *FileStore) LatestSnapshot() (Snapshot, bool) {
	fs.settle()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if !fs.haveSnap {
		return Snapshot{}, false
	}
	s := fs.snap
	s.App = append([]byte(nil), fs.snap.App...)
	return s, true
}

// Recovery reports what OpenFileStore found and repaired.
func (fs *FileStore) Recovery() RecoveryInfo { return fs.recovery }

// WriteSnapshot captures the current height, head hash, and the given
// application state as a durable recovery point: StartSnapshot without
// a prune, then its outcome.
func (fs *FileStore) WriteSnapshot(app []byte) (Snapshot, error) {
	w, err := fs.startSnapshot(app, false)
	if err != nil {
		return Snapshot{}, err
	}
	fs.mu.Lock()
	if fs.write == w {
		fs.write = nil
	}
	fs.mu.Unlock()
	<-w.done
	return w.snap, w.err
}

// StartSnapshot captures the current height, head hash, and the given
// application state as the next recovery point and returns while a
// goroutine makes it durable. Under the lock it only flushes the active
// segment and captures; the goroutine then fsyncs that segment, so the
// snapshot never claims a height the log could lose, writes the
// snapshot file atomically (temp + fsync + rename + directory fsync),
// publishes it, deletes generations beyond snapshotKeep and, with
// prune set, prunes the segments sealed before the capture. At most
// one write is in flight: a write still running is waited for first,
// and its error returned. WaitSnapshot returns the outcome; every call
// that reads or changes snapshot or prune state waits for it, except
// CaptureHeight, so a caller may leave the write uncollected until its
// next capture is due.
func (fs *FileStore) StartSnapshot(app []byte, prune bool) error {
	_, err := fs.startSnapshot(app, prune)
	return err
}

// startSnapshot is StartSnapshot, returning the write it started.
func (fs *FileStore) startSnapshot(app []byte, prune bool) (*snapshotWrite, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for done := fs.runningLocked(); done != nil; done = fs.runningLocked() {
		fs.mu.Unlock()
		<-done
		fs.mu.Lock()
	}
	if w := fs.write; w != nil {
		if fs.write = nil; w.err != nil {
			return nil, w.err
		}
	}
	if fs.active != nil {
		if err := fs.w.Flush(); err != nil {
			return nil, fmt.Errorf("flush before snapshot: %w", err)
		}
	}
	w := &snapshotWrite{
		snap: Snapshot{Height: fs.height, Head: fs.headHash, App: bytes.Clone(app)},
		done: make(chan struct{}),
	}
	if n := len(fs.segments); prune && n > 0 {
		w.pruneBelow = fs.segments[n-1].first
	}
	fs.write, fs.written = w, w.done
	go fs.persist(w, fs.active)
	return w, nil
}

// WaitSnapshot waits for the snapshot write in flight and returns how
// many segments its prune deleted and its error; 0 and nil when no
// write is left to collect.
func (fs *FileStore) WaitSnapshot() (pruned int, err error) {
	if w := fs.collect(); w != nil {
		return w.pruned, w.err
	}
	return 0, nil
}

// collect waits for the snapshot write in flight and takes the last
// write from the store; nil when there is none or another call took it.
func (fs *FileStore) collect() *snapshotWrite {
	fs.mu.Lock()
	w, done := fs.write, fs.written
	fs.write = nil
	fs.mu.Unlock()
	if done != nil {
		<-done
	}
	return w
}

// runningLocked returns the done channel of the snapshot write still
// running, nil when none is. Callers hold mu.
func (fs *FileStore) runningLocked() chan struct{} {
	select {
	case <-fs.written: // a nil channel is never ready
		return nil
	default:
		return fs.written
	}
}

// settle waits for the snapshot write in flight, leaving its outcome
// for a call that returns it.
func (fs *FileStore) settle() {
	fs.mu.RLock()
	done := fs.written
	fs.mu.RUnlock()
	if done != nil {
		<-done
	}
}

// persist is StartSnapshot's goroutine. The store lock is held only to
// publish: the snapshot, the generations to delete and the segments to
// prune. A segment sealed since the capture was fsynced by its seal,
// so finding active closed is no failure.
func (fs *FileStore) persist(w *snapshotWrite, active *os.File) {
	defer close(w.done)
	if active != nil {
		if err := active.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
			w.err = fmt.Errorf("sync before snapshot: %w", err)
			return
		}
	}
	if w.err = writeSnapshotFile(fs.dir, w.snap); w.err != nil {
		return
	}
	fs.mu.Lock()
	fs.snap, fs.haveSnap = w.snap, true
	stale := fs.retireGenerationsLocked(w.snap.Height)
	doomed := fs.detachPrunableLocked(w.pruneBelow)
	fs.mu.Unlock()
	// Deletion failures are ignored: stale snapshots are harmless, newer
	// ones always win at open, and the next open lists them again.
	for _, h := range stale {
		_ = os.Remove(filepath.Join(fs.dir, snapshotName(h)))
	}
	w.pruned, w.err = removeSegments(fs.dir, doomed)
}

// retireGenerationsLocked files a snapshot just written at height h
// among the generations on disk and takes out, to be deleted, the
// older ones beyond snapshotKeep. Callers hold mu.
func (fs *FileStore) retireGenerationsLocked(h uint64) []uint64 {
	i, found := slices.BinarySearch(fs.gens, h)
	if !found {
		fs.gens = slices.Insert(fs.gens, i, h)
	}
	cut := max(i-(snapshotKeep-1), 0)
	stale := slices.Clone(fs.gens[:cut])
	fs.gens = slices.Delete(fs.gens, 0, cut)
	return stale
}

// Prune deletes sealed segments that lie entirely at or below the
// latest snapshot height and returns how many were removed, after the
// snapshot write in flight, whose error it returns. The active
// segment is never pruned — it holds the head block — so Head and
// every Get above the horizon keep working. Safety invariant: a block
// is only ever deleted once a durable snapshot at or above it exists,
// so the recovery state (snapshot + surviving suffix) always
// reproduces the chain head.
func (fs *FileStore) Prune() (int, error) {
	if _, err := fs.WaitSnapshot(); err != nil {
		return 0, err
	}
	fs.mu.Lock()
	doomed := fs.detachPrunableLocked(math.MaxUint64)
	fs.mu.Unlock()
	return removeSegments(fs.dir, doomed)
}

// detachPrunableLocked drops the sealed segments that start below
// serial below and lie wholly at or below the latest durable snapshot
// from the index, moving the prune horizon past them, and returns them
// for removeSegments. Get refuses their serials from here on, so their
// files may go outside the lock. Callers hold mu.
func (fs *FileStore) detachPrunableLocked(below uint64) []*segmentInfo {
	if !fs.haveSnap {
		return nil
	}
	n := 0
	for n < len(fs.segments)-1 {
		if seg := fs.segments[n]; seg.first >= below || seg.count() == 0 || seg.last() > fs.snap.Height {
			break
		}
		n++
	}
	if n == 0 {
		return nil
	}
	doomed := slices.Clone(fs.segments[:n])
	fs.pruned = doomed[n-1].last()
	fs.segments = slices.Delete(fs.segments, 0, n)
	return doomed
}

// removeSegments deletes detached segment files in serial order, so
// what a failure leaves on disk is still a contiguous run, and fsyncs
// the directory. It returns how many it deleted.
func removeSegments(dir string, doomed []*segmentInfo) (int, error) {
	for i, seg := range doomed {
		if err := os.Remove(seg.path); err != nil {
			return i, fmt.Errorf("prune segment: %w", err)
		}
	}
	if len(doomed) > 0 {
		if err := syncDir(dir); err != nil {
			return len(doomed), fmt.Errorf("prune sync: %w", err)
		}
	}
	return len(doomed), nil
}

// Close waits for the snapshot write in flight, returning its error
// if no call has, then flushes, fsyncs, and closes the active segment.
func (fs *FileStore) Close() error {
	_, err := fs.WaitSnapshot()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return errors.Join(err, fs.sealActiveLocked())
}
