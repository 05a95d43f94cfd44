package archivestore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runstore"
)

// FuzzStoreFile feeds arbitrary bytes to every reader of a store file:
// runstore.Inspect, a full runstore.ScanFile (both dispatch through the
// format table), and the archive's own Open + Scan + Close. It is
// seeded with one small file per format, so mutations start from a
// valid JSONL journal, binary journal, archive and compressed archive.
// None of the readers may panic; rejecting the input is fine.
func FuzzStoreFile(f *testing.F) {
	dir := f.TempDir()
	src := filepath.Join(dir, "seed.jsonl")
	j, err := runstore.Open(src)
	if err != nil {
		f.Fatal(err)
	}
	for row := 0; row < 2; row++ {
		for rep := 0; rep < 2; rep++ {
			if err := j.Append(rec("e", row, rep, float64(10*row+rep))); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	for _, ext := range []string{".jsonl", runstore.BinaryExt, Ext, ExtZ} {
		dst := filepath.Join(dir, "seed-out"+ext)
		if _, err := runstore.Merge([]string{src}, dst); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(dst)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		runstore.Inspect(path)
		for _, err := range runstore.ScanFile(path) {
			if err != nil {
				break
			}
		}
		// Open last: it may repair (truncate) a torn archive in place.
		a, err := Open(path)
		if err != nil {
			return
		}
		for _, err := range a.Scan() {
			if err != nil {
				break
			}
		}
		a.Close()
	})
}
