package runstore

import (
	"hash/fnv"
	"iter"
)

// Store is the persistence interface the scheduler (internal/sched)
// executes against: lookup and warm-start reads, durable appends, and a
// deterministic streaming view of every record. *Journal — the
// single-file JSONL backend — is the reference implementation;
// shardstore (a sharded directory of journals) is the scale-out one and
// archivestore (a block-indexed single file) the million-run one. Future
// backends (a remote-worker collector feed) plug in behind the same five
// methods without touching the scheduler.
//
// Contract notes for implementors:
//   - Lookup and ReplicateCount must serve the last-wins view of every
//     record Append has durably persisted, plus whatever the store loaded
//     on open.
//   - Append must be durable before it returns: a crash immediately after
//     a successful Append must not lose the record.
//   - Scan must be deterministic for a given store state, must never
//     materialize the full record set (hand records to the consumer one
//     at a time), and must tolerate a concurrent Append: the iteration
//     walks a snapshot of the KEY SET present when it started, without
//     blocking writers for its whole duration. Keys appended later are
//     not yielded; each key's record is read at yield time, so a
//     superseding append that lands mid-scan may surface in its latest
//     form — value-level point-in-time isolation is not promised. A
//     read failure mid-iteration is yielded as the error, after which
//     the sequence stops.
//   - All methods must be safe for concurrent use.
type Store interface {
	// Lookup returns the stored record for one unit, if present.
	Lookup(experiment, hash string, replicate int) (Record, bool)
	// ReplicateCount returns how many contiguous replicates (0..n-1) of
	// one cell the store holds — the warm-start budget already spent.
	ReplicateCount(experiment, hash string) int
	// Scan streams all distinct records in the store's deterministic
	// order, one at a time. Use runstore.Collect at the few sites that
	// truly need the whole slice.
	Scan() iter.Seq2[Record, error]
	// Append validates, persists, and indexes one record.
	Append(Record) error
	// Close releases the store's resources; reads may keep serving the
	// in-memory view, Append fails afterwards.
	Close() error
}

// The JSONL journal is the reference Store backend.
var _ Store = (*Journal)(nil)

// ShardIndex maps an assignment hash to one of n shards. Every layer of
// the sharded workflow — the scheduler's row partition, the shardstore's
// append routing, and the shard-plan tooling — must agree on this
// function, or disjoint workers would write overlapping shards. The hash
// string is re-hashed (FNV-1a) rather than parsed so any stable cell
// identifier shards evenly, not just the 16-hex AssignmentHash form.
func ShardIndex(hash string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(hash))
	return int(h.Sum64() % uint64(n))
}

// Info summarizes one store file without opening it for writing.
type Info struct {
	Records  int    // complete records in the file, including superseded ones
	Distinct int    // distinct (experiment, hash, replicate) keys
	Torn     bool   // the file ends in a torn (crash-interrupted) tail
	Detail   string // backend-specific shape, e.g. archive block/index stats
}

// Inspect reads a store file read-only and reports its shape — the
// status probe behind `perfeval inspect` and `perfeval shard-plan`. It
// drains the file's SourceReader, so every format goes through the same
// streaming walk (and the same framing and torn-tail rule) that Open and
// every other reader use: a torn or truncated tail is detected and
// reported via Info.Torn, never silently repaired or silently counted
// past; a corrupt interior record is an error. Info.Detail carries the
// format's own shape (archive block and index stats).
func Inspect(path string) (Info, error) {
	r, err := OpenSource(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	for _, err := range r.Entries() {
		if err != nil {
			return Info{}, err
		}
	}
	return r.Info(), nil
}
