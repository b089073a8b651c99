package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"paragraph/internal/advisor"
)

// adviseAnswer is one advise answer as the handler resolved it: the
// AdviseResponse fields, with the ranking still in the cache's form and the
// request's Top and IncludeSource, which shape only its rendering.
type adviseAnswer struct {
	machine, model, kernel, key, servedBy string
	cached, coalesced                     bool
	elapsedMS                             float64
	recs                                  []advisor.Recommendation
	top                                   int
	includeSource                         bool
}

// appendJSON appends the answer as json.NewEncoder(w).Encode writes the
// AdviseResponse it stands for: AdviseResponse's field order and omitempty
// fields, encoding/json's string escaping and float text, null for an
// empty ranking and a trailing newline (FuzzAdviseResponseWire holds the
// two to the same bytes). Every prediction is finite: serveKeyed refuses a
// ranking that is not, and JSON cannot carry one into the cache.
func (a *adviseAnswer) appendJSON(b []byte) []byte {
	b = append(b, `{"machine":`...)
	b = appendJSONString(b, a.machine)
	b = append(b, `,"model":`...)
	b = appendJSONString(b, a.model)
	b = append(b, `,"kernel":`...)
	b = appendJSONString(b, a.kernel)
	if a.key != "" {
		b = append(b, `,"key":`...)
		b = appendJSONString(b, a.key)
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, a.cached)
	if a.coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	if a.servedBy != "" {
		b = append(b, `,"served_by":`...)
		b = appendJSONString(b, a.servedBy)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, a.elapsedMS)
	b = append(b, `,"recommendations":`...)
	recs := a.recs
	if a.top > 0 && a.top < len(recs) {
		recs = recs[:a.top]
	}
	if len(recs) == 0 {
		b = append(b, "null"...)
	}
	for i, rec := range recs {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"variant":`...)
		b = appendJSONString(b, rec.Kind.String())
		if rec.Teams != 0 {
			b = append(b, `,"teams":`...)
			b = strconv.AppendInt(b, int64(rec.Teams), 10)
		}
		b = append(b, `,"threads":`...)
		b = strconv.AppendInt(b, int64(rec.Threads), 10)
		b = append(b, `,"predicted_us":`...)
		b = appendJSONFloat(b, rec.PredictedUS)
		if a.includeSource && rec.Source != "" {
			b = append(b, `,"source":`...)
			b = appendJSONString(b, rec.Source)
		}
		b = append(b, '}')
	}
	if len(recs) > 0 {
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// appendJSONString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone is copied between quotes; anything else
// (quotes, backslashes, <, >, &, control bytes, non-ASCII) goes through
// json.Marshal, which escapes it as the encoder does.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends a finite float64 as encoding/json writes it: the
// shortest text that round-trips, in exponent form below 1e-6 and from
// 1e21, with a single-digit negative exponent left unpadded (1e-7, not
// 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// renderBufs recycles answer buffers; one over maxPooledRender (a ranking
// rendered with its sources) is left to the collector rather than pinned.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRender = 64 << 10

// writeAdvise renders one advise answer and writes it as a 200.
func writeAdvise(w http.ResponseWriter, a *adviseAnswer) {
	buf := renderBufs.Get().(*[]byte)
	b := a.appendJSON((*buf)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledRender {
		*buf = b
		renderBufs.Put(buf)
	}
}
