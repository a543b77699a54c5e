package experiments

import (
	"repro/internal/jsonlog"
	"repro/internal/sampling"
	"repro/internal/simpoint"
)

// The run journal is an append-only JSONL file under the output
// directory: one header line identifying the run, then one record per
// completed measurement or SimPoint analysis. The file format and its
// crash rules belong to internal/jsonlog: a crashed or SIGINT'd RunAll
// leaves at worst a torn final line, replay stops at the first line
// that is unterminated or does not decode, the file is truncated back
// to the last good record, and the resumed run re-executes only what is
// missing. Failures are never journaled — a resumed run retries failed
// cells from scratch.
//
// Byte-identity across resume is free by construction: records hold
// sampling.Result / simpoint.Analysis values whose fields round-trip
// exactly through encoding/json (Go marshals float64 with the shortest
// representation that parses back to the same bit pattern), so a
// replayed result is the result. The same property makes records safe
// to ship between processes: the distributed sweep service
// (internal/sweep) moves exactly these records over HTTP and merges
// per-worker streams back into one canonical journal.

// JournalVersion gates the journal format; a bump invalidates (and
// rotates aside) every older file.
const JournalVersion = 1

// JournalRecord is one line of the journal. Kind selects which of the
// remaining fields are meaningful.
type JournalRecord struct {
	Kind string `json:"kind"` // "header" | "result" | "analysis" | "metrics"

	// Header fields: everything that must match for old records to be
	// valid in this run. Scale changes every measured value; the
	// journal version gates the format itself.
	Version int `json:"version,omitempty"`
	Scale   int `json:"scale,omitempty"`

	Bench    string             `json:"bench,omitempty"`
	Policy   string             `json:"policy,omitempty"`
	Result   *sampling.Result   `json:"result,omitempty"`
	Analysis *simpoint.Analysis `json:"analysis,omitempty"`

	// Metrics is the final obs-registry snapshot Runner.Close appends
	// when an obs registry is attached: what the sweep cost, alongside
	// what it produced. Replay ignores these records (wall-clock metrics
	// are not resumable state).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// JournalSink receives journal records as the runner produces them, in
// append order (a SimPoint analysis always precedes its results). The
// sweep worker plugs in a sink that forwards records to the
// coordinator; Append errors cost durability for that record only,
// never results. Implementations must be safe for concurrent use.
type JournalSink interface {
	Append(rec JournalRecord) error
}

// journalHeader is the first line of a journal for a run at scale.
func journalHeader(scale int) JournalRecord {
	return JournalRecord{Kind: "header", Version: JournalVersion, Scale: scale}
}

// sameRun reports whether a journal header belongs to a run at scale:
// a different scale or format version makes every record in the file
// invalid for this run, so the file is rotated aside (or, for
// ReadJournal, ignored).
func sameRun(scale int) func(JournalRecord) bool {
	return func(h JournalRecord) bool {
		return h.Kind == "header" && h.Version == JournalVersion && h.Scale == scale
	}
}

// replayable filters replay down to the records a resumed run consumes:
// results and analyses. Headers and metrics snapshots are dropped.
func replayable(records *[]JournalRecord) func(JournalRecord) {
	return func(rec JournalRecord) {
		if rec.Kind == "result" || rec.Kind == "analysis" {
			*records = append(*records, rec)
		}
	}
}

// openJournal opens (or creates) the journal at path through jsonlog,
// which replays its valid prefix, rotates a journal from another run to
// a numbered "stale" backup and truncates a torn tail. It returns the
// log positioned for appends plus the replayed records. Only
// unrecoverable I/O errors are returned — callers degrade to
// journal-less operation.
func openJournal(path string, scale int) (*jsonlog.Log, []JournalRecord, error) {
	var records []JournalRecord
	j, replayed, err := jsonlog.Open(path, sameRun(scale), replayable(&records))
	if err != nil {
		return nil, nil, err
	}
	if replayed == 0 {
		if _, err := j.Append(journalHeader(scale)); err != nil {
			j.Close()
			return nil, nil, err
		}
	}
	return j, records, nil
}

// ReadJournal replays the valid prefix of the journal at path for a run
// at the given scale, without opening it for appends. A missing file or
// one written by a different run (scale or format mismatch) returns no
// records. The sweep coordinator uses this to pre-complete cells whose
// results survived an earlier, interrupted sweep.
func ReadJournal(path string, scale int) ([]JournalRecord, error) {
	var records []JournalRecord
	if _, err := jsonlog.Replay(path, sameRun(scale), replayable(&records)); err != nil {
		return nil, err
	}
	return records, nil
}

// WriteJournalFile atomically writes a complete journal (header plus
// the given records, in order) to path, so a crash never leaves a
// half-merged journal under a live name. The sweep coordinator's
// journal-merge step uses this to fold per-worker record streams into
// the canonical run journal.
func WriteJournalFile(path string, scale int, records []JournalRecord) error {
	return jsonlog.WriteFile(path, append([]JournalRecord{journalHeader(scale)}, records...))
}
