// Package feedback accumulates measured runtimes reported by clients into an
// append-only, crash-safe, per-platform log. It is the durable half of the
// serving tier's feedback→retrain→rollout loop: `POST /v1/feedback` appends
// here, and `train -from-feedback` (or the serve background retrainer) reads
// the log back into an incremental training set.
//
// Records are newline-delimited JSON, one object per line, written with a
// single O_APPEND write under a mutex so concurrent appends never interleave.
// Reads tolerate a torn final line (a crash mid-write) by discarding any
// trailing bytes that do not decode; everything before the tear is preserved.
// Beyond the standard library the package imports only internal/hw, for the
// platform → file name rule it shares with the registry (hw.Slug).
package feedback

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"paragraph/internal/hw"
)

// FormatVersion is stamped into every record so future readers can migrate.
const FormatVersion = 1

// Record is one measured observation: "the request identified by Key, served
// with this model on this platform, predicted PredictedUS but actually ran in
// MeasuredUS". Source carries the exact generated variant source so a retrain
// can rebuild the ParaGraph sample without access to the serving process.
type Record struct {
	V           int                `json:"v"`
	Key         string             `json:"key"`      // content-addressed request hash
	Platform    string             `json:"platform"` // hw machine name
	Model       string             `json:"model"`    // model version that served the prediction
	Kernel      string             `json:"kernel"`
	Variant     string             `json:"variant"`
	Teams       int                `json:"teams,omitempty"`
	Threads     int                `json:"threads"`
	Bindings    map[string]float64 `json:"bindings,omitempty"`
	Source      string             `json:"source"`
	PredictedUS float64            `json:"predicted_us"`
	MeasuredUS  float64            `json:"measured_us"`
	UnixNano    int64              `json:"unix_nano"`
}

// Validate reports whether the record is complete enough to train from.
func (r Record) Validate() error {
	switch {
	case r.Key == "":
		return fmt.Errorf("feedback: record missing key")
	case r.Platform == "":
		return fmt.Errorf("feedback: record missing platform")
	case r.Source == "":
		return fmt.Errorf("feedback: record missing source")
	case r.Threads <= 0:
		return fmt.Errorf("feedback: record needs positive threads, got %d", r.Threads)
	case !(r.MeasuredUS > 0) || math.IsInf(r.MeasuredUS, 0):
		return fmt.Errorf("feedback: measured_us must be finite and positive, got %v", r.MeasuredUS)
	}
	return nil
}

// Log is a directory of per-platform JSONL files.
type Log struct {
	dir string
	mu  sync.Mutex
}

// Open creates dir if needed and returns a log rooted there.
func Open(dir string) (*Log, error) {
	if dir == "" {
		return nil, fmt.Errorf("feedback: empty log directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: create log dir: %w", err)
	}
	return &Log{dir: dir}, nil
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

func (l *Log) path(platform string) string {
	return filepath.Join(l.dir, hw.Slug(platform)+".jsonl")
}

// Append validates rec, stamps the format version, and appends it to the
// platform's log file as one JSON line. The write is a single O_APPEND
// syscall so concurrent appenders (or multiple processes) never interleave
// partial lines; a crash can only tear the final line, which Read discards.
func (l *Log) Append(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	rec.V = FormatVersion
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("feedback: encode record: %w", err)
	}
	line = append(line, '\n')

	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.OpenFile(l.path(rec.Platform), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: open log: %w", err)
	}
	defer f.Close()
	// Heal a torn tail from a previous crash: if the file does not end in a
	// newline, terminate that line first so the new record gets its own line
	// instead of gluing onto (and being lost with) the torn one.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			line = append([]byte{'\n'}, line...)
		}
	}
	if _, err := f.Write(line); err != nil {
		return fmt.Errorf("feedback: append record: %w", err)
	}
	return f.Close()
}

// Read returns all decodable records for platform in append order, plus the
// number of lines skipped because they were torn or malformed. A missing
// file is an empty log, not an error.
func (l *Log) Read(platform string) (recs []Record, skipped int, err error) {
	f, err := os.Open(l.path(platform))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("feedback: open log: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Validate() != nil {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, skipped, fmt.Errorf("feedback: scan log: %w", err)
	}
	return recs, skipped, nil
}

// Count returns the number of valid records currently logged for platform.
func (l *Log) Count(platform string) (int, error) {
	recs, _, err := l.Read(platform)
	return len(recs), err
}

// Platforms lists the platform slugs that have log files, sorted by name.
func (l *Log) Platforms() ([]string, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("feedback: list log dir: %w", err)
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		out = append(out, strings.TrimSuffix(e.Name(), ".jsonl"))
	}
	return out, nil
}
