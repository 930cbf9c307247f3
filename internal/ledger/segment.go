package ledger

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

// On-disk layout of one chain segment (DESIGN.md §4g):
//
//	header:  8-byte magic "RPSG0001" + big-endian uint64 first serial
//	frames:  repeated [uint32 length | uint32 CRC-32 (IEEE) of payload | payload]
//
// A segment file is named chain-<first>.seg where <first> is the
// zero-padded serial of its first block, so a lexical directory sort
// is also the serial sort. Frames are appended strictly in serial
// order; frame i of a segment holds block first+i, which is why the
// offset index open builds needs no per-frame serial field.
const (
	segMagic        = "RPSG0001"
	segHeaderSize   = 16 // magic + first serial
	frameHeadSize   = 8  // length + CRC
	maxFramePayload = 1 << 28
)

// segmentName returns the file name for the segment whose first block
// has the given serial.
func segmentName(first uint64) string {
	return fmt.Sprintf("chain-%020d.seg", first)
}

// parseSegmentName extracts the first serial from a chain-<first>.seg
// file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "chain-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "chain-"), ".seg")
	if len(digits) != 20 {
		return 0, false
	}
	first, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return first, true
}

// segmentInfo is the in-memory per-segment offset index. Every segment
// but the store's last is sealed: fsynced, closed and never written
// again.
type segmentInfo struct {
	path    string
	first   uint64  // serial of the first frame
	offsets []int64 // byte offset of each frame header, in serial order
	size    int64   // current byte size of the segment file
}

func (s *segmentInfo) count() int { return len(s.offsets) }

// last returns the serial of the newest block in the segment; callers
// must check count() > 0 first.
func (s *segmentInfo) last() uint64 { return s.first + uint64(s.count()) - 1 }

// writeSegmentHeader starts a fresh segment file.
func writeSegmentHeader(w io.Writer, first uint64) error {
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.BigEndian.PutUint64(hdr[8:], first)
	_, err := w.Write(hdr[:])
	return err
}

// readSegmentHeader validates a segment file's header and returns its
// first serial.
func readSegmentHeader(r io.Reader, path string) (uint64, error) {
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("segment %s: header: %w", filepath.Base(path), ErrCorruptChain)
	}
	if string(hdr[:8]) != segMagic {
		return 0, fmt.Errorf("segment %s: bad magic: %w", filepath.Base(path), ErrCorruptChain)
	}
	return binary.BigEndian.Uint64(hdr[8:]), nil
}

// appendFrame writes one length+CRC framed payload.
func appendFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeadSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameScanResult classifies why a segment scan stopped.
type frameScanResult int

const (
	scanEOF       frameScanResult = iota // clean end of segment
	scanTruncated                        // frame extends past end of file
	scanBadFrame                         // CRC or decode failure
)

// readFrame reads one frame. On success it returns the payload (nil
// when verify is off); res distinguishes a truncated or bad frame from
// a clean read so the caller can apply its torn-tail policy.
func readFrame(r *bufio.Reader, verify bool) (payload []byte, n int64, res frameScanResult) {
	// Peek reads the header in place, so the header-only walk of a long
	// segment allocates nothing per frame; Discard then cannot fail.
	hdr, err := r.Peek(frameHeadSize)
	if len(hdr) < frameHeadSize {
		if len(hdr) == 0 && err == io.EOF {
			return nil, 0, scanEOF
		}
		return nil, 0, scanTruncated
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	_, _ = r.Discard(frameHeadSize)
	if length > maxFramePayload {
		return nil, frameHeadSize, scanBadFrame
	}
	if !verify {
		// Index-only scan: skip the payload without buffering or
		// checksumming it. Discard reports how many bytes it skipped,
		// so a short segment still surfaces as truncation.
		skipped, err := r.Discard(int(length))
		if err != nil || skipped != int(length) {
			return nil, frameHeadSize + int64(skipped), scanTruncated
		}
		return nil, frameHeadSize + int64(length), scanEOF
	}
	payload = make([]byte, length)
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, frameHeadSize + int64(m), scanTruncated
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, frameHeadSize + int64(length), scanBadFrame
	}
	return payload, frameHeadSize + int64(length), scanEOF
}
