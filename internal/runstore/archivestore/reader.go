package archivestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"os"

	"repro/internal/runstore"
)

// reader is the streaming runstore.SourceReader over one archive file:
// Entries walks the block sequence front to back with buffered reads,
// decoding each record transiently; Read fetches a single block by
// extent. It backs runstore.OpenSource, LoadRecords, ScanFile, Merge,
// Compact, and Inspect for archive files — the same walk, torn-tail
// rule, and finalization check everywhere.
type reader struct {
	path string
	f    *os.File
	size int64
	info runstore.Info
}

// OpenReader opens the archive at path for streaming read-only access —
// the file is never created, repaired, or truncated. It is the
// Format.OpenReader hook registered with runstore.
func OpenReader(path string) (runstore.SourceReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("archivestore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("archivestore: %w", err)
	}
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(f, head); err != nil || string(head) != Magic {
		f.Close()
		return nil, fmt.Errorf("archivestore: %s is not an archive (bad or short magic)", path)
	}
	return &reader{path: path, f: f, size: st.Size()}, nil
}

// Entries implements runstore.SourceReader: every record block in file
// order, superseded blocks included. A torn or unfinalized tail ends
// the walk without error and is reported via Info; unknown block types
// with valid checksums are skipped (forward compatibility, per the
// docs/FORMAT.md versioning policy).
func (r *reader) Entries() iter.Seq2[runstore.SourceEntry, error] {
	return func(yield func(runstore.SourceEntry, error) bool) {
		br := bufio.NewReaderSize(io.NewSectionReader(r.f, int64(headerSize), r.size-int64(headerSize)), 256<<10)
		off := int64(headerSize)
		records, zrecords, pages := 0, 0, 0
		finalized := false
		distinct := make(map[string]struct{})
		var hdr [blockHeaderSize]byte
	walk:
		for {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				break // EOF or torn mid-header: the tail is measured below
			}
			typ, payload, ok := readBlockBody(br, hdr, r.size-off-int64(blockHeaderSize))
			if !ok {
				break
			}
			blockLen := int64(blockHeaderSize) + int64(len(payload))
			switch typ {
			case blockFooter:
				// A finalized archive ends footer, trailer, EOF — anything
				// else past the footer is a torn finalize.
				end := off + blockLen
				if r.size == end+int64(trailerSize) {
					t := make([]byte, trailerSize)
					if _, err := r.f.ReadAt(t, end); err == nil {
						if footOff, ok := decodeTrailer(t); ok && footOff == off {
							finalized = true
						}
					}
				}
				break walk
			case blockRecord, blockRecordZ:
				rec, err := decodeRecordBlock(typ, payload)
				if err != nil {
					yield(runstore.SourceEntry{}, fmt.Errorf("archivestore: %s: %w", r.path, err))
					return
				}
				records++
				if typ == blockRecordZ {
					zrecords++
				}
				e := runstore.SourceEntry{
					Experiment: rec.Experiment,
					Hash:       rec.Hash,
					Replicate:  rec.Replicate,
					Row:        rec.Row,
					Fp:         runstore.Fingerprint(rec),
					Ext:        runstore.Extent{Off: off, Len: blockLen},
				}
				distinct[e.Key()] = struct{}{}
				if !yield(e, nil) {
					return
				}
			case blockIndex:
				pages++
			}
			off += blockLen
		}
		var dropped int64
		if !finalized {
			dropped = r.size - off
		}
		r.info = runstore.Info{
			Records:  records,
			Distinct: len(distinct),
			Torn:     dropped > 0 || (!finalized && records > 0),
			Detail:   describe(records, zrecords, pages, finalized, dropped),
		}
	}
}

// readBlockBody finishes reading one block whose header bytes are in
// hdr: it validates the length against both the payload bound and the
// bytes remaining in the file (so a corrupt length field cannot drive a
// huge allocation), reads the payload, and checks the checksum —
// parseBlock's torn-block rule for streamed input.
func readBlockBody(br *bufio.Reader, hdr [blockHeaderSize]byte, remaining int64) (typ byte, payload []byte, ok bool) {
	frame := make([]byte, blockHeaderSize)
	copy(frame, hdr[:])
	typ = hdr[0]
	if typ == 0 { // a zeroed region is damage, not a block
		return 0, nil, false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[1:5]))
	if n > maxPayload || n > remaining {
		return 0, nil, false
	}
	frame = append(frame, make([]byte, n)...)
	if _, err := io.ReadFull(br, frame[blockHeaderSize:]); err != nil {
		return 0, nil, false
	}
	t, payload, ok := parseBlock(frame, 0)
	if !ok {
		return 0, nil, false
	}
	return t, payload, true
}

// Read implements runstore.SourceReader with one positioned read of the
// record block at ext.
func (r *reader) Read(ext runstore.Extent) (runstore.Record, error) {
	buf := make([]byte, ext.Len)
	if _, err := r.f.ReadAt(buf, ext.Off); err != nil {
		return runstore.Record{}, fmt.Errorf("archivestore: %s: reading block at %d: %w", r.path, ext.Off, err)
	}
	typ, payload, ok := parseBlock(buf, 0)
	if !ok || !isRecordBlock(typ) {
		return runstore.Record{}, fmt.Errorf("archivestore: %s: block at %d is not a valid record", r.path, ext.Off)
	}
	return decodeRecordBlock(typ, payload)
}

// Info implements runstore.SourceReader; complete once Entries has been
// consumed.
func (r *reader) Info() runstore.Info { return r.info }

// Close implements runstore.SourceReader.
func (r *reader) Close() error { return r.f.Close() }

// describe renders the archive Detail string shared by the streaming
// reader (so runstore.Inspect) and the open Archive's Info.
func describe(records, zrecords, pages int, finalized bool, dropped int64) string {
	detail := fmt.Sprintf("archive: %d record block(s), %d index page(s)", records, pages)
	if zrecords > 0 {
		detail = fmt.Sprintf("archive: %d record block(s) (%d compressed), %d index page(s)", records, zrecords, pages)
	}
	switch {
	case finalized:
		detail += ", footer ok"
	case dropped > 0:
		detail += fmt.Sprintf(", TRUNCATED: no valid footer, %d trailing byte(s) would be dropped on open", dropped)
	default:
		detail += ", unfinalized: no footer yet, open falls back to a full scan"
	}
	return detail
}
