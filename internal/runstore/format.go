package runstore

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"strings"
)

// Format is one row of the store-file format table: how Merge, Compact,
// LoadRecords, ScanFile, and Inspect read and rewrite a file of that
// format. The table holds the JSONL journal (the fallback row: it has
// no magic), the binary journal, and whatever backends register from an
// init function (the block-indexed archive in
// internal/runstore/archivestore, plain and compressed). Any program
// that imports a backend package can then merge into, diff against, or
// inspect files of its format with no extra plumbing.
type Format struct {
	// Ext is the file extension, with dot (".arch"). A Merge destination
	// with this extension is written in the format.
	Ext string
	// Sniff reports whether a file starting with head (its first eight or
	// fewer bytes) is in the format. Sources are dispatched by content,
	// not extension, so renamed files keep working.
	Sniff func(head []byte) bool
	// OpenReader opens the file for streaming read-only access — the
	// file is never created, repaired, or truncated. It is how Merge,
	// Compact, LoadRecords, ScanFile, and Inspect consume files of the
	// format.
	OpenReader func(path string) (SourceReader, error)
	// Write atomically replaces dst with the given canonical record
	// sequence, consumed incrementally (never materialized), copying the
	// file mode from modeFrom when it exists (see AtomicWrite). A
	// yielded error aborts the write, leaving dst untouched.
	Write func(dst string, recs iter.Seq2[Record, error], modeFrom string) error
}

// formats is the format table. Row 0 is the JSONL journal, the
// fallback for a file no other row sniffs and a destination no other
// row's extension matches. Registration happens only from init
// functions (which the runtime serializes), so reads need no lock.
var formats = []Format{codecFormat(jsonlCodec, ".jsonl")}

// RegisterFormat adds a store format to the table. Call it from the
// backend package's init function only; later registration races with
// lookups.
func RegisterFormat(f Format) {
	if f.Ext == "" || f.Sniff == nil || f.OpenReader == nil || f.Write == nil {
		panic(fmt.Sprintf("runstore: RegisterFormat: incomplete format %+v", f))
	}
	formats = append(formats, f)
}

// codecFormat builds the table row of a journal codec: the reader is
// the codec's streaming scan, and Write emits the codec header, then
// one encoded record after another through one reused buffer, filling
// an empty Hash the way Append would.
func codecFormat(c codec, ext string) Format {
	return Format{
		Ext:        ext,
		Sniff:      func(head []byte) bool { return strings.HasPrefix(string(head), c.header) },
		OpenReader: func(path string) (SourceReader, error) { return openReader(path, c) },
		Write: func(dst string, recs iter.Seq2[Record, error], modeFrom string) error {
			bufp := getBuf()
			defer putBuf(bufp)
			return AtomicWrite(dst, modeFrom, func(w *bufio.Writer) error {
				if _, err := w.WriteString(c.header); err != nil {
					return fmt.Errorf("runstore: %w", err)
				}
				for rec, err := range recs {
					if err != nil {
						return err
					}
					if rec.Hash == "" {
						rec.Hash = AssignmentHash(rec.Assignment)
					}
					if *bufp, err = c.encode((*bufp)[:0], rec); err != nil {
						return fmt.Errorf("runstore: %w", err)
					}
					if _, err := w.Write(*bufp); err != nil {
						return fmt.Errorf("runstore: %w", err)
					}
				}
				return nil
			})
		},
	}
}

// formatOf sniffs the file at path and returns its row of the table.
// A file no row with a magic claims — JSONL, or a missing or unreadable
// file — gets the JSONL row, whose reader produces the right error.
func formatOf(path string) *Format {
	f, err := os.Open(path)
	if err != nil {
		return &formats[0]
	}
	defer f.Close()
	head := make([]byte, 8)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF {
		return &formats[0]
	}
	for i := 1; i < len(formats); i++ {
		if formats[i].Sniff(head[:n]) {
			return &formats[i]
		}
	}
	return &formats[0]
}

// formatForDst matches a destination path by extension — the file may
// not exist yet, so content sniffing cannot apply — falling back to the
// JSONL row.
func formatForDst(path string) *Format {
	for i := 1; i < len(formats); i++ {
		if strings.HasSuffix(path, formats[i].Ext) {
			return &formats[i]
		}
	}
	return &formats[0]
}

// AtomicWrite replaces dst with whatever emit writes: temp file in the
// target directory, single fsync, rename. The file mode is copied from
// modeFrom when it exists (so rewriting a store file in place never
// silently changes its permissions), 0644 otherwise. Every Format.Write
// goes through it.
func AtomicWrite(dst, modeFrom string, emit func(w *bufio.Writer) error) error {
	if dir := filepath.Dir(dst); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".rewrite-*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(modeFrom); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := tmp.Chmod(mode); err != nil {
		tmp.Close()
		return fmt.Errorf("runstore: %w", err)
	}
	bw := bufio.NewWriterSize(tmp, 256<<10)
	if err := emit(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("runstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("runstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}
