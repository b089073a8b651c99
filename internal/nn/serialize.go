package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"paragraph/internal/tensor"
)

// paramRecord is the on-disk form of one parameter.
type paramRecord struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// checkpoint is the on-disk envelope for a parameter set.
type checkpoint struct {
	Version int           `json:"version"`
	Params  []paramRecord `json:"params"`
}

// records lays params out in their on-disk form, sharing their data.
func records(params []*Parameter) []paramRecord {
	recs := make([]paramRecord, len(params))
	for i, p := range params {
		recs[i] = paramRecord{Name: p.Name, Rows: p.Value.Rows, Cols: p.Value.Cols, Data: p.Value.Data}
	}
	return recs
}

// SaveParams writes the parameters' values as JSON. Parameter names must be
// unique (they are the load-time join key).
func SaveParams(w io.Writer, params []*Parameter) error {
	seen := map[string]bool{}
	for i, p := range params {
		if p.Name == "" {
			return fmt.Errorf("nn: parameter %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
	return json.NewEncoder(w).Encode(checkpoint{Version: 1, Params: records(params)})
}

// ChecksumParams fingerprints a parameter set: a hex SHA-256 over every
// parameter's name, shape and exact bit pattern, in order. Registry
// manifests store it next to the weights file so a checkpoint that was
// corrupted or swapped after training is rejected at load time rather than
// silently served.
func ChecksumParams(params []*Parameter) string { return checksum(records(params)) }

// checksum is ChecksumParams over records.
func checksum(recs []paramRecord) string {
	h := sha256.New()
	var buf [8]byte
	for _, rec := range recs {
		fmt.Fprintf(h, "%s:%dx%d:", rec.Name, rec.Rows, rec.Cols)
		for _, v := range rec.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LoadParams reads a checkpoint into the given parameters, matching by
// name, and returns the checkpoint's checksum: ChecksumParams of the
// parameter set that wrote it, over its records as written. Every
// parameter must be present with matching shape. A checkpoint entry that no
// parameter takes is an error (it signals a model-architecture mismatch)
// unless dropped holds its name: such a record is checksummed and
// discarded.
func LoadParams(r io.Reader, params []*Parameter, dropped map[string]bool) (string, error) {
	var cp checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return "", fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	if cp.Version != 1 {
		return "", fmt.Errorf("nn: unsupported checkpoint version %d", cp.Version)
	}
	byName := make(map[string]paramRecord, len(cp.Params))
	for _, rec := range cp.Params {
		byName[rec.Name] = rec
	}
	if len(byName) != len(cp.Params) {
		return "", fmt.Errorf("nn: checkpoint has duplicate parameter names")
	}
	for _, p := range params {
		rec, ok := byName[p.Name]
		if !ok {
			return "", fmt.Errorf("nn: checkpoint missing parameter %q", p.Name)
		}
		if rec.Rows != p.Value.Rows || rec.Cols != p.Value.Cols {
			return "", fmt.Errorf("nn: parameter %q shape %dx%d, checkpoint has %dx%d",
				p.Name, p.Value.Rows, p.Value.Cols, rec.Rows, rec.Cols)
		}
		if len(rec.Data) != rec.Rows*rec.Cols {
			return "", fmt.Errorf("nn: parameter %q data length %d != %d", p.Name, len(rec.Data), rec.Rows*rec.Cols)
		}
		p.Value = tensor.FromData(rec.Rows, rec.Cols, append([]float64(nil), rec.Data...))
		delete(byName, p.Name)
	}
	for name := range byName {
		if !dropped[name] {
			return "", fmt.Errorf("nn: checkpoint parameter %q does not exist in the model", name)
		}
	}
	return checksum(cp.Params), nil
}
