package applog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// FrameHeaderSize is the size of a frame header: the payload length and
// the payload's CRC-32C, both little-endian u32.
const FrameHeaderSize = 4 + 4

// Castagnoli is the CRC-32C table every frame checksum uses.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one frame holding payload to dst and returns the
// extended buffer.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeaderSize)...)
	dst = append(dst, payload...)
	SealFrame(dst[start:])
	return dst
}

// SealFrame fills in the header of frame, whose first FrameHeaderSize
// bytes are reserved and whose remainder is the payload. Encoders that
// build the payload in place reserve the header, append the payload,
// and seal: one buffer, no payload copy.
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, Castagnoli))
}

// ScanFrames is the frame framing's one scanner and torn-tail rule. It
// reads frames from r (base is r's offset in the file) and calls fn with
// each checksum-valid payload and the frame's extent; the payload buffer
// is reused, so fn must copy what it keeps. It returns the absolute
// offset up to which the input is intact.
//
// Length-prefixed framing cannot resynchronize past damage, so the first
// frame a torn single-write append could have produced ends the readable
// region with torn=true: a truncated header, a truncated payload, or a
// checksum mismatch. Two shapes such an append cannot produce are
// errors: a whole header claiming a payload longer than maxPayload, and
// — reported by fn — a checksum-valid payload that does not decode. A
// read failure is an error too, never a torn tail. fn's error stops the
// scan and is returned unchanged.
func ScanFrames(r io.Reader, base int64, maxPayload uint32, fn func(payload []byte, ext Extent) error) (keep int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	off := base
	var hdr [FrameHeaderSize]byte
	var payload []byte
	for {
		if _, rerr := io.ReadFull(br, hdr[:]); rerr != nil {
			if rerr == io.EOF {
				return off, false, nil // clean EOF at a frame boundary
			}
			if rerr == io.ErrUnexpectedEOF {
				return off, true, nil // torn mid-header
			}
			return 0, false, rerr
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > maxPayload {
			return 0, false, fmt.Errorf("corrupt frame at byte %d: impossible payload length %d (max %d)", off, n, maxPayload)
		}
		var rerr error
		if payload, rerr = readPayload(br, payload[:0], int(n)); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return off, true, nil // torn mid-payload
			}
			return 0, false, rerr
		}
		if crc32.Checksum(payload, Castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return off, true, nil
		}
		frameLen := int64(FrameHeaderSize) + int64(n)
		if ferr := fn(payload, Extent{Off: off, Len: frameLen}); ferr != nil {
			return 0, false, ferr
		}
		off += frameLen
	}
}

// readPayload reads n bytes into buf (reused from its start), growing it
// by at most its own size plus 64 KiB per read: a corrupt length field
// in a torn tail then costs about the bytes the input really holds, not
// the up-to-maxPayload bytes it claims.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		step := min(n-len(buf), len(buf)+64<<10)
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
