package archivestore

import (
	"bufio"
	"bytes"
	"fmt"
	"iter"

	"repro/internal/runstore"
)

// init adds the archive's rows to the runstore format table: Merge and
// Compact write an archive when the destination ends in Ext, and
// LoadRecords / ScanFile / Inspect / Merge sources dispatch on the file
// magic through the streaming reader. Any program importing this
// package gets the behavior; the scheduler does not need to.
func init() {
	runstore.RegisterFormat(runstore.Format{
		Ext:        Ext,
		Sniff:      func(head []byte) bool { return bytes.Equal(head, []byte(Magic)) },
		OpenReader: OpenReader,
		Write:      Write,
	})
	// The compressed variant is destination-only: a .archz file carries
	// the same magic and block framing, so as a source it sniffs (and
	// reads) as the plain archive above. Registering the extension
	// routes Merge and Compact destinations ending in .archz through the
	// compressed bulk writer.
	runstore.RegisterFormat(runstore.Format{
		Ext:        ExtZ,
		Sniff:      func(head []byte) bool { return false },
		OpenReader: OpenReader,
		Write:      WriteCompressed,
	})
}

// Write atomically replaces dst with a finalized archive holding the
// records of recs in sequence order: temp file in the target directory,
// one fsync, rename — the bulk build path behind `perfeval archive` and
// archive-destination merges. The sequence is consumed incrementally
// (one record encoded at a time, never a materialized slice), and
// unlike Archive.Append it buffers and syncs once, so converting a
// 10^5-record journal costs one write pass, not 10^5 fsyncs. A yielded
// error aborts the write and leaves dst untouched. The file mode is
// copied from modeFrom when that file exists, 0644 otherwise.
func Write(dst string, recs iter.Seq2[runstore.Record, error], modeFrom string) error {
	return writeWith(dst, recs, modeFrom, false)
}

// WriteCompressed is Write with every record block flate-compressed —
// the bulk build path behind .archz merge destinations. The result is a
// valid archive by every reader's lights (compression is per block, not
// per file), just smaller on disk for the storage-bound cold path.
func WriteCompressed(dst string, recs iter.Seq2[runstore.Record, error], modeFrom string) error {
	return writeWith(dst, recs, modeFrom, true)
}

// writeWith is the shared bulk writer behind Write and WriteCompressed.
func writeWith(dst string, recs iter.Seq2[runstore.Record, error], modeFrom string, compress bool) error {
	return runstore.AtomicWrite(dst, modeFrom, func(bw *bufio.Writer) error {
		if _, err := bw.WriteString(Magic); err != nil {
			return fmt.Errorf("archivestore: %w", err)
		}
		off := int64(headerSize)
		written := 0
		var pending []pendingEntry
		var pages []int64
		flushPage := func() error {
			if len(pending) == 0 {
				return nil
			}
			block := appendBlock(nil, blockIndex, encodeIndexPayload(pending))
			if _, err := bw.Write(block); err != nil {
				return fmt.Errorf("archivestore: %w", err)
			}
			pages = append(pages, off)
			off += int64(len(block))
			pending = pending[:0]
			return nil
		}
		for rec, err := range recs {
			if err != nil {
				return err
			}
			// Fill a missing hash so the stored key matches what Lookup
			// computes — but otherwise write records verbatim: bulk Write
			// is a format conversion, and re-validating (or re-keying)
			// here would make an archive disagree with the journal it
			// came from.
			if rec.Hash == "" {
				rec.Hash = runstore.AssignmentHash(rec.Assignment)
			}
			typ := byte(blockRecord)
			var payload []byte
			if compress {
				typ = blockRecordZ
				payload, err = encodeRecordPayloadZ(rec)
			} else {
				payload, err = encodeRecordPayload(rec)
			}
			if err != nil {
				return err
			}
			block := appendBlock(nil, typ, payload)
			if _, err := bw.Write(block); err != nil {
				return fmt.Errorf("archivestore: %w", err)
			}
			pending = append(pending, pendingEntry{
				exp: rec.Experiment, hash: rec.Hash, rep: rec.Replicate,
				entry: entry{off: off, n: int32(len(block))},
			})
			off += int64(len(block))
			written++
			if len(pending) >= DefaultIndexInterval {
				if err := flushPage(); err != nil {
					return err
				}
			}
		}
		if err := flushPage(); err != nil {
			return err
		}
		tail := appendBlock(nil, blockFooter, encodeFooterPayload(written, pages))
		tail = append(tail, encodeTrailer(off)...)
		if _, err := bw.Write(tail); err != nil {
			return fmt.Errorf("archivestore: %w", err)
		}
		return nil
	})
}
