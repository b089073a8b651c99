package serve

import (
	"encoding/json"
	"fmt"

	"paragraph/internal/advisor"
	"paragraph/internal/variants"
)

// The entry codec: how a response-cache value goes on the wire. One schema
// serves the persisted cache snapshot (snapshot.go) and the outbox's POST
// /v1/replicate batches, which carry write-throughs, ring-change handoffs
// and drains alike — a batch is a snapshot holding its entries. The
// response cache holds rankings only ([]advisor.Recommendation); snapshotOf
// is the only place one is rendered and entries the only place the wire
// form is turned back; everything else in the package calls them.

// snapshotVersion guards the schema; bump on incompatible change.
const snapshotVersion = 1

// recSnap is the wire form of one advisor.Recommendation. Kind travels by
// name so entries survive reorderings of the variants.Kind enum.
type recSnap struct {
	Kind        string  `json:"kind"`
	Teams       int     `json:"teams,omitempty"`
	Threads     int     `json:"threads"`
	PredictedUS float64 `json:"predicted_us"`
	Source      string  `json:"source,omitempty"`
}

type adviseSnap struct {
	Key  string    `json:"key"`
	Recs []recSnap `json:"recs"`
}

// cacheSnapshot is the schema's document. Older builds also wrote a
// "predict" array of single predictions; the decoder skips it as it does
// any unknown field, so their snapshots and batches restore their rankings.
type cacheSnapshot struct {
	Version int          `json:"version"`
	Advise  []adviseSnap `json:"advise"`
}

// snapshotOf renders cache items in the schema, in the order given.
func snapshotOf(items ...CacheItem) cacheSnapshot {
	snap := cacheSnapshot{Version: snapshotVersion}
	for _, it := range items {
		recs := it.Val.([]advisor.Recommendation)
		as := adviseSnap{Key: it.Key, Recs: make([]recSnap, len(recs))}
		for i, r := range recs {
			as.Recs[i] = recSnap{
				Kind: r.Kind.String(), Teams: r.Teams, Threads: r.Threads,
				PredictedUS: r.PredictedUS, Source: r.Source,
			}
		}
		snap.Advise = append(snap.Advise, as)
	}
	return snap
}

// entries turns a decoded snapshot back into cache items, oldest first —
// snapshots list entries most-recent first (Cache.Items' order), so
// feeding the result to Cache.Add in order rebuilds exactly the recency
// the LRU had. A ranking naming a
// variant this build does not know (a snapshot from a future build) is
// dropped rather than failing the rest.
func (snap cacheSnapshot) entries() ([]CacheItem, error) {
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("unsupported version %d", snap.Version)
	}
	items := make([]CacheItem, 0, len(snap.Advise))
advise:
	for i := len(snap.Advise) - 1; i >= 0; i-- {
		as := snap.Advise[i]
		recs := make([]advisor.Recommendation, len(as.Recs))
		for j, rs := range as.Recs {
			kind, err := variants.ParseKind(rs.Kind)
			if err != nil {
				continue advise
			}
			recs[j] = advisor.Recommendation{
				Kind: kind, Teams: rs.Teams, Threads: rs.Threads,
				PredictedUS: rs.PredictedUS, Source: rs.Source,
			}
		}
		items = append(items, CacheItem{Key: as.Key, Val: recs})
	}
	return items, nil
}

// encodeEntries is the body of one outbox batch, POST /v1/replicate.
func encodeEntries(items ...CacheItem) ([]byte, error) {
	return json.Marshal(snapshotOf(items...))
}
