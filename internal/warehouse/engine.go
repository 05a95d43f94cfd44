package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/applog"
)

// Run is one ingested store file's summary — the unit of history. Path
// (relative to the warehouse root, slash-separated) is the run's
// identity; Size, ModTimeNS, and Fingerprint are the change-detection
// seam Refresh uses; Cells carry the per-cell aggregates every query
// answers from.
type Run struct {
	// Path is the run id: the source file's slash path under the root.
	Path string `json:"path"`
	// Size is the source file's byte size at ingest time.
	Size int64 `json:"size"`
	// ModTimeNS is the source file's modification time (Unix
	// nanoseconds) at ingest time; history orders runs by it.
	ModTimeNS int64 `json:"mod_time_ns"`
	// IngestTimeNS is when the warehouse first ingested this content
	// (Unix nanoseconds); a re-ingest whose content fingerprint is
	// unchanged keeps it.
	IngestTimeNS int64 `json:"ingest_time_ns"`
	// Fingerprint is an order-independent combination of every record's
	// runstore.Fingerprint and key — equal record sets fingerprint
	// identically regardless of store format or record order.
	Fingerprint uint64 `json:"fingerprint"`
	// Format names the source's on-disk format ("journal", "binary",
	// "archive"), for display only.
	Format string `json:"format"`
	// Records is the distinct last-wins record count of the source.
	Records int `json:"records"`
	// Pruned marks a retention tombstone: the run left the queryable
	// history but its identity (and change-detection meta) is kept so a
	// Refresh does not silently resurrect it.
	Pruned bool `json:"pruned,omitempty"`
	// Cells are the run's per-(experiment, cell, response) aggregates,
	// sorted by (experiment, assignment, response). Empty on tombstones.
	Cells []Cell `json:"cells,omitempty"`
}

// Cell is one (experiment, design cell, response) aggregate of one run:
// everything a Student-t confidence interval needs, without the raw
// replicate values.
type Cell struct {
	// Experiment names the experiment the cell belongs to.
	Experiment string `json:"experiment"`
	// Hash is the cell's assignment hash (runstore.AssignmentHash).
	Hash string `json:"hash"`
	// Assignment is the cell's factor-level assignment.
	Assignment map[string]string `json:"assignment"`
	// Response names the measured response.
	Response string `json:"response"`
	// N is the replicate count.
	N int `json:"n"`
	// Mean is the arithmetic mean of the replicate values.
	Mean float64 `json:"mean"`
	// Variance is the unbiased sample variance (divisor n-1); 0 when
	// N < 2.
	Variance float64 `json:"variance"`
}

const (
	// IndexMagic is the 8-byte header every warehouse index file starts
	// with. The digit is the format version: an incompatible change to
	// the frame or payload layout bumps it, so old readers reject new
	// files instead of misparsing them.
	IndexMagic = "PEVWHS1\n"
	// IndexFile is the default index file name under the warehouse root.
	// The catalog never ingests it.
	IndexFile = "warehouse.idx"

	idxFrameHeaderSize = applog.FrameHeaderSize

	// maxIndexFrame bounds a frame payload so a corrupt length field
	// cannot drive a multi-gigabyte allocation during recovery scans.
	maxIndexFrame = 1 << 28
)

// idxCastagnoli is the CRC-32C table every index frame checksum uses —
// the applog frame's, shared with the binary record journal.
var idxCastagnoli = applog.Castagnoli

// FileEngine is the warehouse index: an applog file of length-prefixed
// CRC-32C frames, each framing one Run's JSON document, with the
// append-only log's crash discipline — one write plus one fsync per
// Put, torn trailing frame truncated on open, corrupt interior frame an
// error. It is safe for concurrent use.
type FileEngine struct {
	mu   sync.Mutex
	f    *applog.File
	runs map[string]Run // last-wins by Run.Path
	torn bool
}

// OpenFileEngine opens (creating if absent) the index file at path.
// A torn trailing frame — a crash mid-Put — is truncated; a corrupt
// interior frame or a foreign or partial magic header is an error,
// because silently dropping indexed history would let a stale index
// masquerade as a fresh one.
func OpenFileEngine(path string) (*FileEngine, error) {
	e := &FileEngine{runs: make(map[string]Run)}
	f, torn, err := applog.Open(path, []byte(IndexMagic), e.parse)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	e.f, e.torn = f, torn
	return e, nil
}

// parse loads every complete frame from data and reports the byte
// offset up to which the file is intact, by the frame rule of
// applog.ScanFrames. An empty file is a fresh index; anything else
// without the whole magic is foreign. A checksum-valid payload that is
// not a Run with a path is an error.
func (e *FileEngine) parse(data []byte) (keep int64, torn bool, err error) {
	if len(data) == 0 {
		return 0, false, nil
	}
	if !bytes.HasPrefix(data, []byte(IndexMagic)) {
		return 0, false, fmt.Errorf("not a warehouse index (bad magic)")
	}
	return applog.ScanFrames(bytes.NewReader(data[len(IndexMagic):]), int64(len(IndexMagic)), maxIndexFrame,
		func(payload []byte, ext applog.Extent) error {
			var r Run
			if err := json.Unmarshal(payload, &r); err != nil {
				return fmt.Errorf("corrupt index frame at byte %d: %v", ext.Off, err)
			}
			if r.Path == "" {
				return fmt.Errorf("corrupt index frame at byte %d: run without a path", ext.Off)
			}
			e.runs[r.Path] = r
			return nil
		})
}

// Runs returns the last-wins view of every indexed run — tombstones
// included — sorted by (ModTimeNS, Path).
func (e *FileEngine) Runs() []Run {
	e.mu.Lock()
	out := make([]Run, 0, len(e.runs))
	for _, r := range e.runs {
		out = append(out, r)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ModTimeNS != out[j].ModTimeNS {
			return out[i].ModTimeNS < out[j].ModTimeNS
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// encodeIndexFrame frames one Run as its on-disk index bytes: the
// length-prefixed CRC-32C header followed by the JSON payload.
func encodeIndexFrame(r Run) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	return applog.AppendFrame(nil, payload), nil
}

// Put durably inserts or replaces one run's summary, keyed by Path: one
// frame appended with a single Write call followed by Sync, so a crash
// leaves at most one torn frame.
func (e *FileEngine) Put(r Run) error {
	if r.Path == "" {
		return fmt.Errorf("warehouse: run needs a path")
	}
	frame, err := encodeIndexFrame(r)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.f.Append(frame); err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	e.runs[r.Path] = r
	return nil
}

// Close releases the index file; Runs keeps serving the in-memory view,
// Put fails afterwards.
func (e *FileEngine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.f.Close()
}

// Torn reports whether a torn trailing frame was truncated on open —
// surfaced for tests and inspection tooling.
func (e *FileEngine) Torn() bool { return e.torn }

// InspectIndex reports the shape of an index file without opening it
// for writing: run and tombstone counts and whether the tail was torn.
func InspectIndex(path string) (runs, pruned int, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("warehouse: %w", err)
	}
	all, torn, err := readFrames(data)
	if err != nil {
		return 0, 0, false, fmt.Errorf("warehouse: %s: %w", path, err)
	}
	for _, r := range all {
		if r.Pruned {
			pruned++
		}
	}
	return len(all), pruned, torn, nil
}

// readFrames decodes every frame of an index byte stream through the
// same parser Open uses, reporting the intact run view — InspectIndex
// reads through it, and the fuzz target drives the decoder through it.
func readFrames(data []byte) (map[string]Run, bool, error) {
	e := &FileEngine{runs: make(map[string]Run)}
	_, torn, err := e.parse(data)
	if err != nil {
		return nil, false, err
	}
	return e.runs, torn, nil
}
