package testutil

// Bench report files at the repo root (BENCH_router.json) hold an
// append-only JSON array of records, one per `make bench-*` run, each
// self-describing via its "bench" field. Appending rather than
// overwriting keeps each run's history in one file so regressions are
// visible as a series, not a diff.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// AppendBenchRecord appends record to the JSON array at path, creating
// the file when missing. A legacy single-object file (the pre-array
// format) is wrapped into an array first, so old reports survive the
// migration.
func AppendBenchRecord(path string, record interface{}) error {
	rec, err := json.Marshal(record)
	if err != nil {
		return fmt.Errorf("testutil: encode bench record: %w", err)
	}

	var records []json.RawMessage
	existing, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// fresh file
	case err != nil:
		return fmt.Errorf("testutil: read bench file %s: %w", path, err)
	default:
		if err := json.Unmarshal(existing, &records); err != nil {
			// Legacy format: one bare object.
			var single json.RawMessage
			if err2 := json.Unmarshal(existing, &single); err2 != nil {
				return fmt.Errorf("testutil: bench file %s is neither array nor object: %w", path, err)
			}
			records = []json.RawMessage{single}
		}
	}
	records = append(records, rec)

	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
