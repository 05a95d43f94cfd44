package runstore

import (
	"fmt"
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

// The binary journal's row of the format table: Merge, Compact,
// LoadRecords, ScanFile, and Inspect read .binj sources (dispatched by
// content sniffing) and write .binj destinations (dispatched by
// extension) through the same seam the archive uses.
func init() { RegisterFormat(codecFormat(binaryCodec, BinaryExt)) }
