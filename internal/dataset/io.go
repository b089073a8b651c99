package dataset

import (
	"encoding/json"
	"fmt"
	"io"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/variants"
)

// record is the compact on-disk form of a Point: the kernel template is
// reconstructed from the suite by name, so files stay small and the source
// of truth for kernels stays in code.
type record struct {
	Kernel    string             `json:"kernel"`
	Kind      string             `json:"kind"`
	Teams     int                `json:"teams"`
	Threads   int                `json:"threads"`
	Bindings  map[string]float64 `json:"bindings"`
	Machine   string             `json:"machine"`
	RuntimeUS float64            `json:"runtime_us"`
}

// file is the on-disk dataset envelope.
type file struct {
	Version int      `json:"version"`
	Points  []record `json:"points"`
}

// SavePoints writes points as JSON.
func SavePoints(w io.Writer, points []Point) error {
	f := file{Version: 1, Points: make([]record, len(points))}
	for i, p := range points {
		f.Points[i] = record{
			Kernel:    p.Instance.Kernel.Name,
			Kind:      p.Instance.Kind.String(),
			Teams:     p.Instance.Teams,
			Threads:   p.Instance.Threads,
			Bindings:  p.Instance.Bindings,
			Machine:   p.Machine,
			RuntimeUS: p.RuntimeUS,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// LoadPoints reads a JSON dataset, regenerating each instance's transformed
// source from the kernel suite.
func LoadPoints(r io.Reader) ([]Point, error) {
	var f file
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("dataset: decoding: %w", err)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("dataset: unsupported version %d", f.Version)
	}
	points := make([]Point, len(f.Points))
	for i, rec := range f.Points {
		k, ok := apps.ByName(rec.Kernel)
		if !ok {
			return nil, fmt.Errorf("dataset: unknown kernel %q", rec.Kernel)
		}
		kind, err := variants.ParseKind(rec.Kind)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		src, err := variants.Generate(k, kind, rec.Teams, rec.Threads)
		if err != nil {
			return nil, fmt.Errorf("dataset: regenerating %s/%s: %w", rec.Kernel, rec.Kind, err)
		}
		points[i] = Point{
			Instance: variants.Instance{
				Kernel:   k,
				Kind:     kind,
				Teams:    rec.Teams,
				Threads:  rec.Threads,
				Bindings: analysis.Env(rec.Bindings),
				Source:   src,
			},
			Machine:   rec.Machine,
			RuntimeUS: rec.RuntimeUS,
		}
	}
	return points, nil
}
