package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"iter"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/applog"
)

// Record is one journaled execution unit: the responses measured for one
// replicate of one design row of one experiment.
type Record struct {
	Experiment string             `json:"experiment"`
	Row        int                `json:"row"` // design row index at record time (informational)
	Replicate  int                `json:"replicate"`
	Hash       string             `json:"hash"` // AssignmentHash of Assignment
	Assignment map[string]string  `json:"assignment"`
	Responses  map[string]float64 `json:"responses"`
}

// Key returns the journal lookup key for a unit of work. It is built by
// concatenation, not fmt, because every record indexed on open pays this
// cost — the archive backend's O(index) open budget is measured in
// nanoseconds per entry.
func Key(experiment, hash string, replicate int) string {
	return experiment + "/" + hash + "/" + strconv.Itoa(replicate)
}

// Key returns the record's own lookup key.
func (r Record) Key() string { return Key(r.Experiment, r.Hash, r.Replicate) }

// CellKey identifies one design cell — all replicates of one assignment
// of one experiment. It is the identity the scheduler and the adaptive
// replication controller exchange, so one controller can serve several
// experiments without state bleeding across them.
func CellKey(experiment, hash string) string {
	return experiment + "/" + hash
}

// AssignmentHash computes a stable hex digest of a factor-level
// assignment: FNV-1a over the sorted key=value pairs. Two design rows
// with the same assignment hash identically regardless of row order, so
// journals stay valid when a design is extended or reordered.
func AssignmentHash(a map[string]string) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(a[k]))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Journal is an append-only run store with an in-memory index, persisted
// through one applog.File in one of two codecs: JSON lines (Open,
// OpenDir) or binary frames (OpenBinary, OpenBinaryDir). Both share the
// index, the last-wins view, and the torn-tail rule; only the bytes
// differ. Append and Lookup are safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	path  string
	codec codec
	f     *applog.File
	recs  map[string]Record
	order []string // keys in file order, for deterministic Scan order
	torn  bool     // a torn trailing record was truncated on open
}

// codec is one on-disk encoding of a journal.
type codec struct {
	// name names the encoding in errors.
	name string
	// header is the magic every file starts with; "" for JSON lines.
	header string
	// detail describes the encoding in Info.Detail.
	detail string
	// scan walks the records of r, which starts base bytes into the
	// file (just past the header), and returns the absolute offset up
	// to which the input is intact.
	scan func(r io.Reader, base int64, fn func(Record, Extent) error) (keep int64, torn bool, err error)
	// encode appends one record's bytes — a whole line or frame — to dst.
	encode func(dst []byte, rec Record) ([]byte, error)
	// decode parses the bytes of one extent yielded by scan.
	decode func(raw []byte) (Record, error)
}

// jsonlCodec is the version-1 canonical encoding: one JSON object per
// '\n'-terminated line.
var jsonlCodec = codec{
	name: "JSONL",
	scan: applog.ScanLines[Record],
	encode: func(dst []byte, rec Record) ([]byte, error) {
		line, err := json.Marshal(rec)
		if err != nil {
			return dst, err
		}
		return append(append(dst, line...), '\n'), nil
	},
	decode: func(raw []byte) (Record, error) {
		var rec Record
		err := json.Unmarshal(bytes.TrimSpace(raw), &rec)
		return rec, err
	},
}

// Open opens (creating if absent) the JSONL journal at path, loading
// every complete record. A torn trailing line — a crash mid-append — is
// truncated; a corrupt line anywhere else is an error, because silently
// skipping complete records would turn resume into silent re-execution.
func Open(path string) (*Journal, error) { return openJournal(path, jsonlCodec) }

// openJournal opens path in codec c. A file with a header whose bytes
// are a proper prefix of it — a crash while creating the file — is torn
// and restarts as the header alone; any other foreign start is an error.
func openJournal(path string, c codec) (*Journal, error) {
	j := &Journal{path: path, codec: c, recs: make(map[string]Record)}
	index := func(rec Record, _ Extent) error {
		j.index(rec)
		return nil
	}
	header := []byte(c.header)
	scan := func(data []byte) (int64, bool, error) {
		switch {
		case len(data) < len(header) && bytes.HasPrefix(header, data):
			return 0, len(data) > 0, nil
		case !bytes.HasPrefix(data, header):
			return 0, false, fmt.Errorf("not a %s journal", c.name)
		}
		return c.scan(bytes.NewReader(data[len(header):]), int64(len(header)), index)
	}
	var err error
	if c.header == "" {
		j.f, j.torn, err = applog.OpenLines(path, scan)
	} else {
		j.f, j.torn, err = applog.Open(path, header, scan)
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return j, nil
}

// OpenDir opens the journal for one experiment under dir, creating the
// directory as needed. The file is <dir>/<sanitized-experiment>.jsonl.
func OpenDir(dir, experiment string) (*Journal, error) {
	if experiment == "" {
		return nil, fmt.Errorf("runstore: experiment name required")
	}
	return Open(filepath.Join(dir, SanitizeName(experiment)+".jsonl"))
}

// SanitizeName maps an experiment name to a filesystem-safe file stem.
func SanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "journal"
	}
	return b.String()
}

func (j *Journal) index(rec Record) {
	k := rec.Key()
	if _, exists := j.recs[k]; !exists {
		j.order = append(j.order, k)
	}
	j.recs[k] = rec // last record wins, like a log-structured store
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Torn reports whether a torn trailing record was truncated when opening.
func (j *Journal) Torn() bool { return j.torn }

// Len returns the number of distinct journaled units.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Lookup returns the journaled record for a unit, if present.
func (j *Journal) Lookup(experiment, hash string, replicate int) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[Key(experiment, hash, replicate)]
	return rec, ok
}

// ReplicateCount returns how many contiguous replicates (0..n-1) of one
// cell the journal holds — the warm-start budget already spent on it.
// A gap stops the count: the scheduler's warm start replays only this
// prefix before its controller first decides, so every decision sees
// replicates 0..n-1. A replicate past the gap is still used once a
// scheduled batch reaches it — the scheduler looks each scheduled unit
// up and replays a stored one instead of re-executing it, so only the
// hole executes. That holds for adaptive resumes too; a replicate
// beyond the cell's final target stays unused.
func (j *Journal) ReplicateCount(experiment, hash string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for {
		if _, ok := j.recs[Key(experiment, hash, n)]; !ok {
			return n
		}
		n++
	}
}

// Scan implements Store: all distinct records in first-appended order,
// one at a time. The key order is snapshotted when iteration starts, so
// a concurrent Append neither blocks nor corrupts an in-flight scan;
// keys appended after the snapshot are not yielded, while a superseding
// append to a snapshotted key may surface in its latest form (records
// are read at yield time — see the Store contract). The journal's
// records live in its in-memory index, so Scan never fails — the error
// slot exists for backends that read from disk mid-iteration.
func (j *Journal) Scan() iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		j.mu.Lock()
		keys := make([]string, len(j.order))
		copy(keys, j.order)
		j.mu.Unlock()
		for _, k := range keys {
			j.mu.Lock()
			rec := j.recs[k]
			j.mu.Unlock()
			metScanRecords.Inc()
			if !yield(rec, nil) {
				return
			}
		}
	}
}

// NormalizeAppend validates a record for appending and fills its derived
// fields (an empty Hash is computed from the Assignment). Every Store
// backend funnels Append through it, so the set of records a store
// accepts — named experiment, non-negative replicate, finite responses —
// is identical across the journal, the shard store, and the archive.
func NormalizeAppend(rec Record) (Record, error) {
	if rec.Experiment == "" {
		return rec, fmt.Errorf("runstore: record needs an experiment name")
	}
	if rec.Replicate < 0 {
		return rec, fmt.Errorf("runstore: record replicate %d < 0", rec.Replicate)
	}
	if rec.Hash == "" {
		rec.Hash = AssignmentHash(rec.Assignment)
	}
	for name, v := range rec.Responses {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rec, fmt.Errorf("runstore: record response %q is non-finite (%v)", name, v)
		}
	}
	return rec, nil
}

// Append validates, persists, and indexes one record: AppendBatch of
// one.
func (j *Journal) Append(rec Record) error {
	return j.AppendBatch([]Record{rec})
}

// AppendBatch validates, persists, and indexes a batch of records with a
// single Write call followed by a single Sync — the batch-commit
// primitive: N records cost one fsync instead of N. Validation runs over
// the whole batch before any byte is written, so a rejected batch leaves
// nothing behind; a crash mid-write leaves at most one torn record, and
// Open recovers the intact prefix. An empty batch is a no-op.
func (j *Journal) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	bufp := getBuf()
	defer putBuf(bufp)
	normalized := make([]Record, len(recs))
	for i, rec := range recs {
		rec, err := NormalizeAppend(rec)
		if err != nil {
			return err
		}
		if *bufp, err = j.codec.encode(*bufp, rec); err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
		normalized[i] = rec
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Append(*bufp); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	for _, rec := range normalized {
		j.index(rec)
	}
	metAppends.Add(int64(len(normalized)))
	metAppendBytes.Add(int64(len(*bufp)))
	metFsyncs.Inc()
	return nil
}

// Close closes the journal file. Lookup and Scan keep working on the
// in-memory index; Append fails.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// LoadRecords reads every complete record from an existing journal (or
// registered-format archive) file without opening it for writing — the
// file is never created, repaired, or otherwise touched, so diff/report
// tooling works on read-only artifacts. A torn trailing line is ignored,
// as Open would truncate it. It is Collect over ScanFile: callers that
// do not need the whole slice at once should range over ScanFile
// directly.
func LoadRecords(path string) ([]Record, error) {
	return Collect(ScanFile(path))
}
