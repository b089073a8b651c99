package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the ID of the span that caused this one (0 for a
// root). All spans are recorded from the benchmark's own files, around the
// calls into each layer.
type span struct {
	ID      int
	Parent  int
	Request string
	Name    string
	Start   time.Time
	End     time.Time
	Detail  string // e.g. "batch=2" on a gnn.predict span
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer holds a run's spans in memory; nothing is written until the
// benchmark ends. Safe for concurrent use (grid workers record in parallel).
type tracer struct {
	last  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newID reserves a span ID before the span ends, so children recorded
// while it is open can name it as their parent.
func (t *tracer) newID() int { return int(t.last.Add(1)) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover. Children may overlap (grid workers run
// side by side), so their intervals are merged before subtracting.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// uncoveredShare is the part of the replayed requests' wall time that no
// layer span covers: the self time of every root `request` span and of the
// `advisor.advise` span under it (fan-out, hand-over between grid workers,
// the final sort), over the roots' total duration. Every other span of the
// replay is a call into one layer.
func uncoveredShare(spans []span) float64 {
	self := selfTimes(spans)
	var uncovered, total time.Duration
	for _, s := range spans {
		switch s.Name {
		case "request":
			total += s.dur()
			uncovered += self[s.ID]
		case "advisor.advise":
			uncovered += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(uncovered) / float64(total)
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalUS  float64 `json:"total_us"`
	SelfUS   float64 `json:"self_us"`
	MedianUS float64 `json:"median_us"`
}

// layerTable aggregates spans by name, in order of first appearance.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	index := map[string]int{}
	var rows []layerRow
	durs := map[string][]float64{}
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(rows)
			index[s.Name] = i
			rows = append(rows, layerRow{Name: s.Name})
		}
		us := float64(s.dur()) / float64(time.Microsecond)
		rows[i].Count++
		rows[i].TotalUS += us
		rows[i].SelfUS += float64(self[s.ID]) / float64(time.Microsecond)
		durs[s.Name] = append(durs[s.Name], us)
	}
	for i := range rows {
		rows[i].MedianUS = median(durs[rows[i].Name])
	}
	return rows
}

// spanDurationsUS returns the durations, in µs, of every span named name.
func spanDurationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Microsecond))
		}
	}
	return out
}

// traceFile is the on-disk form of a traced run (bench/out/trace-<workload>.json).
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Origin   time.Time   `json:"origin"` // start_us/end_us are relative to this instant
	Layers   []layerRow  `json:"layers"`
	Spans    []traceSpan `json:"spans"`
	// ClientSpansDropped counts client.request spans left out of the file
	// (all were recorded and counted; the file keeps the first
	// maxClientSpansOnDisk so it stays readable).
	ClientSpansDropped int `json:"client_spans_dropped,omitempty"`
}

type traceSpan struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request string  `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Detail  string  `json:"detail,omitempty"`
}

// maxClientSpansOnDisk bounds the client.request spans written out: a hit
// workload records ~10⁴ of them per traced second, all alike.
const maxClientSpansOnDisk = 2000

// writeTrace writes the run's spans and their per-layer table to path.
func writeTrace(path, workload string, seed int64, spans []span, layers []layerRow) error {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	tf := traceFile{Workload: workload, Seed: seed, Origin: origin, Layers: layers}
	clientSpans := 0
	for _, s := range spans {
		if s.Name == "client.request" {
			if clientSpans++; clientSpans > maxClientSpansOnDisk {
				tf.ClientSpansDropped++
				continue
			}
		}
		tf.Spans = append(tf.Spans, traceSpan{
			ID: s.ID, Parent: s.Parent, Request: s.Request, Name: s.Name, Detail: s.Detail,
			StartUS: float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			EndUS:   float64(s.End.Sub(origin)) / float64(time.Microsecond),
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
