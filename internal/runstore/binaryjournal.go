package runstore

import (
	"bufio"
	"fmt"
	"iter"
	"path/filepath"
)

// binaryCodec is the journal's binary encoding: the BinaryMagic header,
// then one length-prefixed checksummed frame per record (see binary.go
// and docs/FORMAT.md).
var binaryCodec = codec{
	name:   "binary",
	header: BinaryMagic,
	detail: "binary frames (PEVBIN1)",
	scan:   scanBinary,
	encode: func(dst []byte, rec Record) ([]byte, error) {
		return appendRecordFrame(dst, rec), nil
	},
	decode: func(raw []byte) (Record, error) {
		if len(raw) < binFrameHeaderSize {
			return Record{}, fmt.Errorf("short frame")
		}
		return decodeBinaryRecord(raw[binFrameHeaderSize:])
	},
}

// OpenBinary opens (creating if absent) the binary journal at path,
// loading every complete record. A torn trailing frame — a crash
// mid-append — is truncated; a file that is not a binary journal, or a
// checksum-valid frame that does not decode, is an error.
func OpenBinary(path string) (*Journal, error) { return openJournal(path, binaryCodec) }

// OpenBinaryDir opens the binary journal for one experiment under dir,
// creating the directory as needed. The file is
// <dir>/<sanitized-experiment>.binj.
func OpenBinaryDir(dir, experiment string) (*Journal, error) {
	if experiment == "" {
		return nil, fmt.Errorf("runstore: experiment name required")
	}
	return OpenBinary(filepath.Join(dir, SanitizeName(experiment)+BinaryExt))
}

// writeBinaryFile atomically replaces dst with the record sequence in
// binary framing — the bulk writer behind Merge and Compact when the
// destination carries the .binj extension. Encoding reuses one pooled
// buffer across the whole sequence, so the write allocates per unique
// record size class, not per record.
func writeBinaryFile(dst string, recs iter.Seq2[Record, error], modeFrom string) error {
	bufp := getBuf()
	defer putBuf(bufp)
	return atomicWrite(dst, modeFrom, func(w *bufio.Writer) error {
		if _, err := w.WriteString(BinaryMagic); err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
		for rec, err := range recs {
			if err != nil {
				return err
			}
			if rec.Hash == "" {
				rec.Hash = AssignmentHash(rec.Assignment)
			}
			*bufp = appendRecordFrame((*bufp)[:0], rec)
			if _, err := w.Write(*bufp); err != nil {
				return fmt.Errorf("runstore: %w", err)
			}
		}
		return nil
	})
}

// The binary journal registers as a Format so Merge, Compact,
// LoadRecords, ScanFile, and Inspect transparently read .binj sources
// (dispatched by content sniffing) and write .binj destinations
// (dispatched by extension) — the same seam the archive uses.
func init() {
	RegisterFormat(Format{
		Name: "binary",
		Ext:  BinaryExt,
		Sniff: func(head []byte) bool {
			return len(head) >= binHeaderSize && string(head[:binHeaderSize]) == BinaryMagic
		},
		OpenReader: func(path string) (SourceReader, error) { return openReader(path, binaryCodec) },
		Write:      writeBinaryFile,
		Inspect:    func(path string) (Info, error) { return inspectFile(path, binaryCodec) },
	})
}
