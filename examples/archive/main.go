// Archive: convert a finished run's journal into a block-indexed
// archive and warm-start from it in O(index) time.
//
// The JSONL journal is the right format while a run is alive — it is
// append-only, human-readable, and greppable — but it re-parses every
// record into memory on open, which caps warm starts at archives that
// fit the parse budget. The archive store
// (internal/runstore/archivestore) is the long-term home: the same
// records as checksummed binary blocks with interleaved index pages and
// a footer, so reopening costs reading the index, not re-parsing the
// world.
//
// The walkthrough:
//
//  1. a 12-cell x 3-replicate design runs through the concurrent
//     scheduler, journaling every completed unit;
//  2. the journal converts to an archive (runstore.Merge with an .arch
//     destination — the same merge that folds shard files), and the
//     conversion is verified record by record through the archive index;
//  3. a second scheduler run executes against the archive via
//     sched.Options.OpenStore and replays every unit from it — zero live
//     executions, and the archive file is untouched, byte for byte;
//  4. the archive's shape (blocks, index pages, footer) comes from
//     runstore.Inspect, which dispatches on the file format.
//
// Run with: go run ./examples/archive
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
	"repro/internal/sched"
)

// simulate is the system under test: a deterministic cost model, so the
// journal-backed run and the archive replay must agree exactly.
func simulate(a design.Assignment, rep int) (map[string]float64, error) {
	scale := map[string]float64{"1GB": 1, "10GB": 10, "100GB": 100, "1TB": 1000}[a["data"]]
	engine := map[string]float64{"row": 1.6, "column": 1.0, "vector": 0.7}[a["engine"]]
	ms := 12.5 * scale * engine
	ms += float64((rep*7)%3) * 0.05 * scale // deterministic replicate jitter
	return map[string]float64{"ms": ms}, nil
}

func experiment() (*harness.Experiment, error) {
	d, err := design.FullFactorial([]design.Factor{
		design.MustFactor("data", "1GB", "10GB", "100GB", "1TB"),
		design.MustFactor("engine", "row", "column", "vector"),
	})
	if err != nil {
		return nil, err
	}
	d.Replicates = 3
	return &harness.Experiment{
		Name: "scan cost", Design: d, Responses: []string{"ms"}, Run: simulate,
	}, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "archive example:", err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "archive-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e, err := experiment()
	if err != nil {
		return err
	}

	// 1. Live run, journal-backed.
	journalDir := filepath.Join(dir, "journal")
	live := sched.New(sched.Options{Workers: 4, JournalDir: journalDir})
	if _, err := live.Execute(context.Background(), e); err != nil {
		return err
	}
	st := live.LastStats()
	fmt.Printf("live run:      %d unit(s), %d executed, %d replayed\n", st.Units, st.Executed, st.Replayed)

	// 2. Convert the journal to an archive — same Merge that folds
	// shards; the .arch extension selects the archive writer.
	journal := filepath.Join(journalDir, runstore.SanitizeName(e.Name)+".jsonl")
	arch := filepath.Join(dir, "archive", runstore.SanitizeName(e.Name)+archivestore.Ext)
	ms, err := runstore.Merge([]string{journal}, arch)
	if err != nil {
		return err
	}
	fmt.Printf("converted:     %d record(s) -> %s\n", ms.Kept, filepath.Base(arch))

	// Verify the conversion through the archive index, record by record.
	a, err := archivestore.Open(arch)
	if err != nil {
		return err
	}
	verified := 0
	for want, err := range runstore.MergeScan([]string{journal}) {
		if err != nil {
			a.Close()
			return err
		}
		got, ok := a.Lookup(want.Experiment, want.Hash, want.Replicate)
		if !ok || got.Responses["ms"] != want.Responses["ms"] {
			a.Close()
			return fmt.Errorf("verification failed for %s", want.Key())
		}
		verified++
	}
	a.Close()
	fmt.Printf("verified:      %d index lookup(s) match the journal\n", verified)

	before, err := os.ReadFile(arch)
	if err != nil {
		return err
	}

	// 3. Warm-start against the archive: every unit replays, nothing
	// executes, and the file is byte-identical afterwards.
	replay := sched.New(sched.Options{
		Workers:    4,
		JournalDir: filepath.Dir(arch),
		OpenStore: func(d, experiment string) (runstore.Store, error) {
			return archivestore.OpenDir(d, experiment)
		},
	})
	if _, err := replay.Execute(context.Background(), e); err != nil {
		return err
	}
	rst := replay.LastStats()
	fmt.Printf("archive replay: %d unit(s), %d executed, %d replayed\n", rst.Units, rst.Executed, rst.Replayed)
	if rst.Executed != 0 {
		return fmt.Errorf("warm start re-executed %d unit(s)", rst.Executed)
	}
	after, err := os.ReadFile(arch)
	if err != nil {
		return err
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("replay mutated the archive")
	}
	fmt.Println("archive file untouched by replay (byte-identical)")

	// 4. The archive's physical shape, via the format-aware Inspect.
	info, err := runstore.Inspect(arch)
	if err != nil {
		return err
	}
	fmt.Printf("inspect:       %d record(s), %d distinct, torn=%v\n               %s\n",
		info.Records, info.Distinct, info.Torn, info.Detail)
	return nil
}
