package runstore

import (
	"fmt"
	"hash/fnv"
	"io"
	"iter"
	"math"
	"os"
	"sort"

	"repro/internal/applog"
)

// Extent locates one record's encoded bytes inside a store file, in the
// file's own framing (a JSONL line, a binary frame, an archive record
// block). Extents are only meaningful to the SourceReader that yielded
// them.
type Extent = applog.Extent

// SourceEntry is the lightweight per-record metadata a streaming index
// pass yields: enough to key, order canonically, and compare
// measurements without retaining the decoded record. The decoded record
// itself (its assignment and response maps) is transient — that is the
// point of the streaming contract.
type SourceEntry struct {
	Experiment string
	Hash       string
	Replicate  int
	Row        int
	// Fp fingerprints the measurement (assignment + responses, Row
	// excluded) so superseding appends that changed the measurement are
	// detectable without re-reading either record.
	Fp  uint64
	Ext Extent
}

// Key returns the entry's runstore lookup key.
func (e SourceEntry) Key() string { return Key(e.Experiment, e.Hash, e.Replicate) }

// SourceReader is the streaming, random-access view of one store file
// that Merge, Compact, LoadRecords, and Inspect consume. Entries makes
// one forward pass in file order, decoding each record transiently;
// Read decodes a single record by the extent Entries yielded for it.
// Every row of the format table supplies one (Format.OpenReader);
// OpenSource dispatches.
type SourceReader interface {
	// Entries iterates every record in file order — superseded records
	// included — as lightweight entries. A torn trailing frame ends the
	// iteration without error (Info reports it); a corrupt interior
	// frame yields the error and stops.
	Entries() iter.Seq2[SourceEntry, error]
	// Read decodes the record at ext, which must have been yielded by
	// Entries on this reader. Read must be safe for concurrent use —
	// every implementation serves it with a stateless positioned read
	// (ReadAt).
	Read(ext Extent) (Record, error)
	// Info reports the file's shape. Records/Torn are complete only
	// after Entries has been fully consumed.
	Info() Info
	// Close releases the reader's file handle.
	Close() error
}

// OpenSource opens the store file at path for streaming read-only
// access through its row of the format table: registered formats by
// content sniffing, the JSONL journal as the fallback. The file is
// never created, repaired, or truncated.
func OpenSource(path string) (SourceReader, error) {
	return formatOf(path).OpenReader(path)
}

// Fingerprint hashes a record's measurement — its assignment and
// responses, with the informational Row field deliberately excluded, so
// a re-numbered design never reads as a conflicting measurement. Two
// records with equal assignments and responses fingerprint identically.
func Fingerprint(rec Record) uint64 {
	h := fnv.New64a()
	keys := make([]string, 0, len(rec.Assignment))
	for k := range rec.Assignment {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(rec.Assignment[k]))
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
	keys = keys[:0]
	for k := range rec.Responses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		v := rec.Responses[k]
		if v == 0 {
			v = 0 // fold -0 into +0: they compare equal as measurements
		}
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// entryOf builds the index entry for one decoded record.
func entryOf(rec Record, ext Extent) SourceEntry {
	return SourceEntry{
		Experiment: rec.Experiment,
		Hash:       rec.Hash,
		Replicate:  rec.Replicate,
		Row:        rec.Row,
		Fp:         Fingerprint(rec),
		Ext:        ext,
	}
}

// Collect materializes a record sequence into a slice, stopping at the
// first error. It is the bridge for the few true-materialization sites
// (summaries, gates, verification); everything else should consume the
// sequence incrementally.
func Collect(seq iter.Seq2[Record, error]) ([]Record, error) {
	var out []Record
	for rec, err := range seq {
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// fileReader is the SourceReader of both journal codecs.
type fileReader struct {
	path  string
	f     *os.File
	codec codec
	info  Info
}

// openReader opens a journal file of codec c read-only, checking its
// header.
func openReader(path string, c codec) (*fileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	head := make([]byte, len(c.header))
	if _, err := io.ReadFull(f, head); err != nil || string(head) != c.header {
		f.Close()
		return nil, fmt.Errorf("runstore: %s: not a %s journal", path, c.name)
	}
	return &fileReader{path: path, f: f, codec: c}, nil
}

// Entries implements SourceReader, scanning the records from the start.
// It may be consumed more than once; each call re-reads the file.
func (r *fileReader) Entries() iter.Seq2[SourceEntry, error] {
	return func(yield func(SourceEntry, error) bool) {
		base := int64(len(r.codec.header))
		if _, err := r.f.Seek(base, io.SeekStart); err != nil {
			yield(SourceEntry{}, fmt.Errorf("runstore: %w", err))
			return
		}
		records, distinct := 0, make(map[string]struct{})
		stop := fmt.Errorf("runstore: iteration stopped") // sentinel, never escapes
		_, torn, err := r.codec.scan(r.f, base, func(rec Record, ext Extent) error {
			// Canonicalize before indexing: a hand-written record with no
			// hash must key (and dedupe) as the hash Append would derive.
			if rec.Hash == "" {
				rec.Hash = AssignmentHash(rec.Assignment)
			}
			records++
			e := entryOf(rec, ext)
			distinct[e.Key()] = struct{}{}
			if !yield(e, nil) {
				return stop
			}
			return nil
		})
		if err == stop {
			return
		}
		if err != nil {
			yield(SourceEntry{}, fmt.Errorf("runstore: %s: %w", r.path, err))
			return
		}
		r.info = Info{Records: records, Distinct: len(distinct), Torn: torn, Detail: r.codec.detail}
	}
}

// Read implements SourceReader with one positioned read of the record's
// line or frame, so it is safe for concurrent use.
func (r *fileReader) Read(ext Extent) (Record, error) {
	raw := make([]byte, ext.Len)
	if _, err := r.f.ReadAt(raw, ext.Off); err != nil {
		return Record{}, fmt.Errorf("runstore: %s: reading record at byte %d: %w", r.path, ext.Off, err)
	}
	rec, err := r.codec.decode(raw)
	if err != nil {
		return Record{}, fmt.Errorf("runstore: %s: record at byte %d: %w", r.path, ext.Off, err)
	}
	if rec.Hash == "" {
		rec.Hash = AssignmentHash(rec.Assignment)
	}
	return rec, nil
}

// Info implements SourceReader; complete after Entries is consumed.
func (r *fileReader) Info() Info { return r.info }

// Close implements SourceReader.
func (r *fileReader) Close() error { return r.f.Close() }

// ScanFile streams the distinct last-wins records of a store file —
// journal or registered-format archive — in the file's deterministic
// first-appended order, without materializing the record set: an index
// pass sizes the winners, then records decode one at a time. The file
// is opened read-only and never repaired; a torn trailing frame is
// dropped exactly as Open would drop it. Errors (unreadable file,
// corrupt interior frame) surface in the sequence; iteration stops at
// the first one.
func ScanFile(path string) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		r, err := OpenSource(path)
		if err != nil {
			yield(Record{}, err)
			return
		}
		defer r.Close()
		idx, order, _, err := indexEntries(r)
		if err != nil {
			yield(Record{}, err)
			return
		}
		for _, k := range order {
			rec, err := r.Read(idx[k].Ext)
			if err != nil {
				yield(Record{}, err)
				return
			}
			if !yield(rec, nil) {
				return
			}
		}
	}
}

// indexEntries consumes a reader's Entries into a last-wins index plus
// the first-appended key order — the in-memory shape Open's journal
// index has, at entry rather than record cost.
func indexEntries(r SourceReader) (idx map[string]SourceEntry, order []string, records int, err error) {
	idx = make(map[string]SourceEntry)
	for e, eerr := range r.Entries() {
		if eerr != nil {
			return nil, nil, 0, eerr
		}
		records++
		k := e.Key()
		if _, seen := idx[k]; !seen {
			order = append(order, k)
		}
		idx[k] = e
	}
	return idx, order, records, nil
}
