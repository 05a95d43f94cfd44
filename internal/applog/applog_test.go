package applog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// scanFramesAfter is the ScanFunc of a frame log with the given header:
// a proper prefix of the header is torn, anything else foreign.
func scanFramesAfter(header []byte) ScanFunc {
	return func(data []byte) (int64, bool, error) {
		if len(data) < len(header) && bytes.HasPrefix(header, data) {
			return 0, len(data) > 0, nil
		}
		if !bytes.HasPrefix(data, header) {
			return 0, false, errors.New("foreign file")
		}
		return ScanFrames(bytes.NewReader(data[len(header):]), int64(len(header)), 1<<10,
			func([]byte, Extent) error { return nil })
	}
}

func TestOpenWritesHeaderAndCutsTornFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "log")
	header := []byte("HDR1\n")
	l, torn, err := Open(path, header, scanFramesAfter(header))
	if err != nil || torn {
		t.Fatalf("fresh open: torn=%v err=%v", torn, err)
	}
	frames := AppendFrame(AppendFrame(nil, []byte("one")), []byte("two"))
	if err := l.Append(frames); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(frames); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	whole := append(append([]byte{}, header...), frames...)
	// Cut the second frame short: open keeps the first, reports torn,
	// and the next append lands where the torn frame began.
	if err := os.WriteFile(path, whole[:len(whole)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l, torn, err = Open(path, header, scanFramesAfter(header))
	if err != nil || !torn {
		t.Fatalf("torn open: torn=%v err=%v", torn, err)
	}
	if err := l.Append(AppendFrame(nil, []byte("two"))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, whole) {
		t.Fatalf("recovered log = %q, want %q", got, whole)
	}
	// A partial header restarts the file as the header alone.
	if err := os.WriteFile(path, header[:2], 0o644); err != nil {
		t.Fatal(err)
	}
	l, torn, err = Open(path, header, scanFramesAfter(header))
	if err != nil || !torn {
		t.Fatalf("partial header open: torn=%v err=%v", torn, err)
	}
	l.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, header) {
		t.Fatalf("restarted log = %q, want %q", got, header)
	}
}

func TestScanFramesErrors(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	huge := append([]byte{}, frame...)
	huge[3] = 0x7f // claims a payload far past the bound
	if _, _, err := ScanFrames(bytes.NewReader(huge), 0, 1<<10, func([]byte, Extent) error { return nil }); err == nil {
		t.Error("impossible length read as torn")
	}
	bad := errors.New("undecodable")
	if _, _, err := ScanFrames(bytes.NewReader(frame), 0, 1<<10, func([]byte, Extent) error { return bad }); err != bad {
		t.Errorf("fn error = %v, want it returned unchanged", err)
	}
	flipped := append([]byte{}, frame...)
	flipped[len(flipped)-1] ^= 1
	keep, torn, err := ScanFrames(bytes.NewReader(flipped), 5, 1<<10, func([]byte, Extent) error { return nil })
	if err != nil || !torn || keep != 5 {
		t.Errorf("checksum mismatch: keep=%d torn=%v err=%v, want 5 true nil", keep, torn, err)
	}
}

// TestScanFramesCorruptLengthAllocatesWhatIsThere: a torn tail whose
// header claims a payload near the bound, followed by a few bytes, is
// torn — and reading it allocates about the bytes present, not the
// length claimed.
func TestScanFramesCorruptLengthAllocatesWhatIsThere(t *testing.T) {
	good := AppendFrame(nil, []byte("payload"))
	data := AppendFrame(append([]byte{}, good...), []byte("tail"))
	data[len(good)+2] = 0x20 // the second frame now claims ~2 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keep, torn, err := ScanFrames(bytes.NewReader(data), 0, 1<<30, func([]byte, Extent) error { return nil })
	runtime.ReadMemStats(&after)
	if err != nil || !torn || keep != int64(len(good)) {
		t.Fatalf("keep=%d torn=%v err=%v, want %d true nil", keep, torn, err, len(good))
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("scanning a %d-byte input allocated %d bytes", len(data), grown)
	}
}

func TestOpenLinesTerminatesWholeLastLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"a\":2}"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []map[string]int
	scan := func(data []byte) (int64, bool, error) {
		got = got[:0]
		return ScanLines(bytes.NewReader(data), 0, func(v map[string]int, _ Extent) error {
			got = append(got, v)
			return nil
		})
	}
	l, torn, err := OpenLines(path, scan)
	if err != nil || torn || len(got) != 2 {
		t.Fatalf("open: %d value(s) torn=%v err=%v", len(got), torn, err)
	}
	if err := l.Append([]byte("{\"a\":3}\n")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if data, _ := os.ReadFile(path); string(data) != "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n" {
		t.Fatalf("log = %q", data)
	}
	// A terminated line that does not decode is an error, not a tail.
	if err := os.WriteFile(path, []byte("{\"a\":1}\nnot json\n{\"a\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenLines(path, scan); err == nil {
		t.Fatal("corrupt interior line accepted")
	}
}
