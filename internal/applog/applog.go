// Package applog is the one append-only log every durable file in this
// repository is written through: the JSONL and binary run journals, the
// collector's control-state journal, and the warehouse index. It owns
// three things, each written once:
//
//   - the file lifecycle (Open, OpenLines, File.Append): create the
//     directory, scan the existing bytes, cut a torn tail back to the
//     last whole record, write and fsync an optional header, and append
//     each batch of records as one Write plus one Sync;
//   - the newline framing (ScanLines): one JSON document per line;
//   - the checksummed frame framing (AppendFrame, ScanFrames): a
//     length-prefixed CRC-32C frame per record.
//
// The durability rule all four logs share — and that docs/FORMAT.md
// states once, in its "Append-only log" section — is that an append is
// a single write followed by fsync, so a crash leaves at most one torn
// trailing record, and open truncates exactly that tail while treating
// damage anywhere else as an error.
//
// A File takes no lock of its own. Every owner already appends under the
// mutex that guards its in-memory view, and holding that mutex across
// Append is what keeps the order on disk equal to the order of the view.
package applog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ErrClosed is the error Append reports after Close.
var ErrClosed = errors.New("log is closed")

// Extent locates one record's encoded bytes inside a log: the offset of
// its frame (or line) and the frame's length in bytes.
type Extent struct {
	Off int64 // byte offset of the record's frame
	Len int64 // frame length in bytes
}

// ScanFunc reads a log file's entire contents — header included — and
// reports the byte offset up to which they are intact. torn reports that
// the bytes past keep are a crash-torn tail; a non-nil error means the
// file is damaged somewhere a crash cannot explain and must not be
// opened for writing.
type ScanFunc func(data []byte) (keep int64, torn bool, err error)

// File is an open append-only log file. It is not safe for concurrent
// use: owners serialize Append and Close under their own mutex.
type File struct {
	path string
	f    *os.File
}

// Open opens (creating if absent, along with its directory) the log at
// path. scan sees the current contents and decides what is intact; the
// file is then truncated to keep. When keep is shorter than header — a
// new file, or one the scan judged torn inside its header — the file is
// restarted as header alone, written and fsynced before Open returns.
// The returned torn is scan's verdict. Errors from scan are returned
// prefixed with the path.
func Open(path string, header []byte, scan ScanFunc) (*File, bool, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, false, err
		}
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, false, err
	}
	keep, torn, err := scan(data)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	// O_APPEND makes every Write land at the end of the file, whatever
	// offset a truncation left behind.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	l := &File{path: path, f: f}
	if keep < int64(len(header)) {
		keep = 0
	}
	if keep < int64(len(data)) {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	if keep == 0 && len(header) > 0 {
		if err := l.Append(header); err != nil {
			f.Close()
			return nil, false, err
		}
	}
	return l, torn, nil
}

// OpenLines is Open for a newline-framed log, which has no header. An
// intact region that ends in a whole but unterminated line — a file
// edited by hand, never a crash — keeps that line and gets its '\n'
// appended, so the next append starts on a fresh line.
func OpenLines(path string, scan ScanFunc) (*File, bool, error) {
	unterminated := false
	l, torn, err := Open(path, nil, func(data []byte) (int64, bool, error) {
		keep, torn, err := scan(data)
		unterminated = err == nil && keep > 0 && data[keep-1] != '\n'
		return keep, torn, err
	})
	if err != nil || !unterminated {
		return l, torn, err
	}
	if err := l.Append([]byte{'\n'}); err != nil {
		l.Close()
		return nil, false, err
	}
	return l, torn, nil
}

// Append makes b durable at the end of the log with one Write followed
// by one Sync. b should hold whole records only: a crash mid-write then
// leaves at most one torn record for the next Open to cut.
func (l *File) Append(b []byte) error {
	if l.f == nil {
		return fmt.Errorf("%s: %w", l.path, ErrClosed)
	}
	if _, err := l.f.Write(b); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the file; Append fails afterwards. Closing twice is a
// no-op.
func (l *File) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ScanLines is the newline framing's one scanner and torn-tail rule. It
// reads r line by line (base is r's offset in the file), decodes each
// non-blank line as one JSON document of type T, and calls fn with the
// value and the line's extent (its '\n' excluded). It returns the
// absolute offset up to which the input is intact:
//
//   - a final unterminated line that does not decode is a torn crash
//     tail: torn=true, keep is the line's start;
//   - a final unterminated line that does decode is kept (keep is the
//     end of input); OpenLines terminates it;
//   - a terminated line that does not decode is an error wherever it
//     sits, because skipping a whole record silently would turn resume
//     into silent re-execution;
//   - a read failure is an error, never a torn tail, so a rewriting
//     consumer cannot drop the unread remainder of a file.
//
// fn's error stops the scan and is returned unchanged.
func ScanLines[T any](r io.Reader, base int64, fn func(v T, ext Extent) error) (keep int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	off := base
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return 0, false, rerr
		}
		if len(line) == 0 {
			return off, false, nil // clean EOF at a line boundary
		}
		terminated := rerr == nil
		raw := line
		if terminated {
			raw = line[:len(line)-1]
		}
		next := off + int64(len(line))
		if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 {
			var v T
			if uerr := json.Unmarshal(trimmed, &v); uerr != nil {
				if !terminated {
					return off, true, nil
				}
				return 0, false, fmt.Errorf("corrupt line at byte %d: %v", off, uerr)
			}
			if ferr := fn(v, Extent{Off: off, Len: int64(len(raw))}); ferr != nil {
				return 0, false, ferr
			}
		}
		if !terminated {
			return next, false, nil
		}
		off = next
	}
}
