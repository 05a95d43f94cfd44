// Package runstore persists experiment execution: the Store interface
// the scheduler (internal/sched) executes against, its reference
// implementation — an append-only JSONL run journal keyed by
// (experiment, assignment-hash, replicate) — plus a baseline store, a
// CI-shift regression gate, journal compaction, canonical-order merging,
// and format-aware inspection. Sibling packages provide the scale-out
// backends behind the same interface: shardstore (a sharded directory of
// journals for disjoint workers) and archivestore (a single-file
// block-indexed archive for million-run warm starts).
//
// The journal is the durability substrate of the scheduler: every
// completed unit of work is appended before the run proceeds, so a
// crashed or interrupted run resumes from disk instead of re-executing —
// the paper's repeatability chapter applied to the experiment harness
// itself. One JSON object per line; a record identifies the experiment
// by name, the design row by a stable hash of its factor-level
// assignment (so journals survive design-row reordering), and the
// replicate index. The normative file-format specification — record
// schema, shard-file naming, merge/compact semantics, and the archive
// layout — is docs/FORMAT.md.
//
// Concurrency contract: Journal's Append, Lookup, ReplicateCount,
// Scan, Len, and Close are safe for concurrent use (one mutex guards
// file and index); Scan snapshots the key set when iteration starts, so
// concurrent appends neither block nor corrupt it. Package-level
// functions that rewrite files (Compact, Merge) are single-writer:
// callers must not run them concurrently with writers of the same
// files. Read-only entry points (OpenSource, ScanFile, LoadRecords,
// Inspect) never write and may run against files another process is
// appending to; they see a prefix.
//
// Streaming contract: the Store view (Scan) and every file-level reader
// (ScanFile, SourceReader, Merge, Compact) hand records to the consumer
// one at a time — peak memory holds a lightweight index entry per key,
// never the record set. Collect materializes a sequence for the few
// sites that truly need a slice. The normative iteration-order and
// error-in-sequence semantics are docs/FORMAT.md §6.
//
// Durability contract: Append returns only after the record's bytes are
// written and fsynced, so a crash immediately after a successful Append
// loses nothing. A crash mid-append leaves at most one torn trailing
// record, which Open truncates (the internal/applog rule, shared by
// Journal's JSONL and binary codecs). Complete records are never
// rewritten in place: Compact and Merge write aside atomically (temp
// file, fsync, rename) and replace.
package runstore
