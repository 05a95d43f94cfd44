package collector

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runstore"
	"repro/internal/warehouse"
)

// crashLog is one append-only log under TestLogsSurviveEveryCrashOffset.
// open opens (or recovers) the log at path and returns the records it
// holds in append order, whether open reported a torn tail, a function
// that appends session record i as one append, and a closer. The test
// lives in this package because it is the one that sees all four logs:
// the state log is unexported here, and collector already imports the
// journals and the warehouse.
type crashLog struct {
	name    string
	file    string
	lines   bool // newline-framed: a whole line cut before its '\n' survives
	partial bool // a cut inside the header recovers (else open refuses it)
	noTorn  bool // open does not report Torn; the byte checks still pin the cut
	session []any
	open    func(path string) (got []any, torn bool, add func(i int) error, close func() error, err error)
}

// journalCrashLog is the crash case of one journal codec.
func journalCrashLog(name, file string, lines, partial bool, open func(string) (*runstore.Journal, error)) crashLog {
	var session []any
	for i := 0; i < 3; i++ {
		a := map[string]string{"cell": fmt.Sprint(i), "mode": "cold"}
		session = append(session, runstore.Record{
			Experiment: "crash", Row: i, Replicate: 0, Hash: runstore.AssignmentHash(a),
			Assignment: a, Responses: map[string]float64{"ms": 1.5 * float64(i+1)},
		})
	}
	return crashLog{name: name, file: file, lines: lines, partial: partial, session: session,
		open: func(path string) ([]any, bool, func(int) error, func() error, error) {
			j, err := open(path)
			if err != nil {
				return nil, false, nil, nil, err
			}
			recs, err := runstore.Collect(j.Scan())
			if err != nil {
				return nil, false, nil, nil, err
			}
			got := make([]any, len(recs))
			for i, r := range recs {
				got[i] = r
			}
			add := func(i int) error { return j.Append(session[i].(runstore.Record)) }
			return got, j.Torn(), add, j.Close, nil
		}}
}

// TestLogsSurviveEveryCrashOffset writes a fixed session to each of the
// four append-only logs, one record per append, then cuts the file at
// every byte offset. Reopening the cut file must yield exactly the
// records whose framing ends at or before the cut — plus, for the line
// logs, a whole JSON line cut just before its '\n' — and appending the
// lost records must reproduce the uncut file byte for byte.
func TestLogsSurviveEveryCrashOffset(t *testing.T) {
	states := []any{
		stateEvent{Type: "epoch", Epoch: 1},
		stateEvent{Type: "worker", Worker: "w1"},
		stateEvent{Type: "acquire", Lease: "lease-1-1", Worker: "w1", Experiment: "e", Shard: 1, ExpiresMS: 5_000},
		stateEvent{Type: "release", Lease: "lease-1-1", Complete: true},
	}
	var runs []any
	for i := 0; i < 2; i++ {
		runs = append(runs, warehouse.Run{
			Path: fmt.Sprintf("r%d.jsonl", i), Size: 100, ModTimeNS: int64(10 + i), IngestTimeNS: 20,
			Fingerprint: 7, Format: "journal", Records: 2,
			Cells: []warehouse.Cell{{Experiment: "e", Hash: "aa", Assignment: map[string]string{"f": "x"},
				Response: "ms", N: 2, Mean: 1.5, Variance: 0.5}},
		})
	}
	logs := []crashLog{
		journalCrashLog("jsonl-journal", "run.jsonl", true, false, runstore.Open),
		journalCrashLog("binary-journal", "run"+runstore.BinaryExt, false, true, runstore.OpenBinary),
		{name: "state-log", file: StateFile, lines: true, noTorn: true, session: states,
			open: func(path string) ([]any, bool, func(int) error, func() error, error) {
				log, events, err := openStateLog(path)
				if err != nil {
					return nil, false, nil, nil, err
				}
				got := make([]any, len(events))
				for i, ev := range events {
					got[i] = ev
				}
				add := func(i int) error { return log.append(states[i].(stateEvent)) }
				return got, false, add, log.close, nil
			}},
		{name: "warehouse-index", file: warehouse.IndexFile, session: runs,
			open: func(path string) ([]any, bool, func(int) error, func() error, error) {
				e, err := warehouse.OpenFileEngine(path)
				if err != nil {
					return nil, false, nil, nil, err
				}
				var got []any
				for _, r := range e.Runs() {
					got = append(got, r)
				}
				add := func(i int) error { return e.Put(runs[i].(warehouse.Run)) }
				return got, e.Torn(), add, e.Close, nil
			}},
	}
	for _, lg := range logs {
		t.Run(lg.name, func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full-"+lg.file)
			_, _, add, closeLog, err := lg.open(full)
			if err != nil {
				t.Fatal(err)
			}
			header := fileSize(t, full)
			var ends []int64 // ends[i]: file size once record i is durable
			for i := range lg.session {
				if err := add(i); err != nil {
					t.Fatal(err)
				}
				ends = append(ends, fileSize(t, full))
			}
			if err := closeLog(); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}

			for cut := int64(0); cut <= int64(len(want)); cut++ {
				path := filepath.Join(dir, lg.file)
				if err := os.WriteFile(path, want[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				kept, boundary := 0, cut == 0 || cut == header
				for i, end := range ends {
					if end <= cut || (lg.lines && end-1 == cut) {
						kept = i + 1
					}
					boundary = boundary || end == cut || (lg.lines && end-1 == cut)
				}
				got, torn, add, closeLog, err := lg.open(path)
				if cut > 0 && cut < header && !lg.partial {
					if err == nil {
						closeLog()
						t.Fatalf("cut at %d: a partial header opened", cut)
					}
					continue
				}
				if err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				if !reflect.DeepEqual(got, lg.session[:kept]) && !(kept == 0 && len(got) == 0) {
					t.Fatalf("cut at %d: reopened %d record(s) %+v, want the first %d", cut, len(got), got, kept)
				}
				if !lg.noTorn && torn == boundary {
					t.Errorf("cut at %d: torn = %v, want %v", cut, torn, !boundary)
				}
				for i := kept; i < len(lg.session); i++ {
					if err := add(i); err != nil {
						t.Fatalf("cut at %d: append %d: %v", cut, i, err)
					}
				}
				if err := closeLog(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, want) {
					t.Fatalf("cut at %d: re-appended log differs from the uncut one:\n got %q\nwant %q", cut, data, want)
				}
			}
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
