package collector

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestNewRejectsNegativeCommitWindow pins that every ingest goes through
// group commit: there is no per-record path a negative window could
// select, so New refuses one instead of silently defaulting it.
func TestNewRejectsNegativeCommitWindow(t *testing.T) {
	_, err := New(Config{Dir: t.TempDir(), CommitWindow: -1, Metrics: obs.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "CommitWindow") {
		t.Fatalf("New with a negative CommitWindow = %v, want an error naming it", err)
	}
}
