package shard

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
)

// Det is one serializable detection record. The fault it belongs to is
// implied by its position: class universes are enumerated
// deterministically (core.Universe / core.NeighborBridges), so a
// shard's records line up with its Range without carrying fault names.
type Det struct {
	Method  string `json:"m,omitempty"`
	Pattern int    `json:"p"`
	// Detected carries the bridge engines' explicit flag; for
	// transistor/stuck-at records it is implied by Method.
	Detected bool `json:"d,omitempty"`
}

// ClassResult is one fault class's slice of a shard result: the
// detection records for the shard's Range and, when the shard captured
// signatures, the per-fault detection bitsets (base64 rows, one per
// fault, little-endian 64-bit words, (patterns+63)/64 words per row).
type ClassResult struct {
	Range Range    `json:"range"`
	Dets  []Det    `json:"dets"`
	Out   []string `json:"out,omitempty"`
	Leak  []string `json:"leak,omitempty"`
}

// Result is one completed sub-job, the unit persisted in
// internal/resultstore under the sub-job key. TransistorV and
// TransistorIQ are the voltage-only and +IDDQ sweeps over the same
// transistor range (the campaign runs both when IDDQ observation is
// on, in the campaign's stage order).
type Result struct {
	Key         string `json:"key"`
	CampaignKey string `json:"campaign_key"`
	Index       int    `json:"index"`
	Total       int    `json:"total"`

	StuckAt      *ClassResult `json:"stuck_at,omitempty"`
	TransistorV  *ClassResult `json:"transistor,omitempty"`
	TransistorIQ *ClassResult `json:"transistor_iddq,omitempty"`
	Bridges      *ClassResult `json:"bridges,omitempty"`

	// GateEvals is the engine-native work the shard performed, for
	// progress accounting; cache-served shards report 0.
	GateEvals uint64 `json:"gate_evals,omitempty"`
}

// Matches validates a loaded result against the sub-job it should
// answer, so a corrupted or mis-keyed artifact fails loudly instead of
// merging wrong rows.
func (r *Result) Matches(j SubJob) error {
	if r.Key != j.Key || r.Index != j.Index || r.Total != j.Total {
		return fmt.Errorf("shard: result (%s %d/%d) does not answer sub-job (%s %d/%d)",
			r.Key, r.Index, r.Total, j.Key, j.Index, j.Total)
	}
	check := func(name string, cr *ClassResult, want Range, capture bool) error {
		if cr == nil {
			return nil
		}
		if cr.Range != want {
			return fmt.Errorf("shard: result %d/%d %s range %v, sub-job wants %v", r.Index, r.Total, name, cr.Range, want)
		}
		if len(cr.Dets) != want.Len() {
			return fmt.Errorf("shard: result %d/%d %s has %d records for %d faults", r.Index, r.Total, name, len(cr.Dets), want.Len())
		}
		if capture && len(cr.Out) != want.Len() {
			return fmt.Errorf("shard: result %d/%d %s missing signature rows (capture expected)", r.Index, r.Total, name)
		}
		return nil
	}
	if err := check("stuck_at", r.StuckAt, j.StuckAt, j.Capture); err != nil {
		return err
	}
	if err := check("transistor", r.TransistorV, j.Transistor, false); err != nil {
		return err
	}
	if err := check("transistor_iddq", r.TransistorIQ, j.Transistor, false); err != nil {
		return err
	}
	return check("bridges", r.Bridges, j.Bridges, false)
}

// EncodeDetections converts engine detections to wire records.
func EncodeDetections(ds []faultsim.Detection) []Det {
	out := make([]Det, len(ds))
	for i, d := range ds {
		out[i] = Det{Method: string(d.Method), Pattern: d.Pattern}
	}
	return out
}

// EncodeBridgeDetections converts bridge detections to wire records.
func EncodeBridgeDetections(ds []faultsim.BridgeDetection) []Det {
	out := make([]Det, len(ds))
	for i, d := range ds {
		out[i] = Det{Method: string(d.Method), Pattern: d.Pattern, Detected: d.Detected}
	}
	return out
}

// classParts collects, validates and orders the per-shard slices of one
// class: ranges must tile [0, n) exactly.
func classParts(n int, parts []*ClassResult) ([]*ClassResult, error) {
	got := make([]*ClassResult, 0, len(parts))
	for _, p := range parts {
		if p != nil {
			got = append(got, p)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Range.Start < got[j].Range.Start })
	at := 0
	for _, p := range got {
		if p.Range.Start != at {
			return nil, fmt.Errorf("shard: merge gap at fault %d (next range starts at %d)", at, p.Range.Start)
		}
		if len(p.Dets) != p.Range.Len() {
			return nil, fmt.Errorf("shard: range %v carries %d records", p.Range, len(p.Dets))
		}
		at = p.Range.End
	}
	if at != n {
		return nil, fmt.Errorf("shard: merged ranges cover %d of %d faults", at, n)
	}
	return got, nil
}

// MergeDetections reassembles the full detection list of one class from
// its shard slices, in universe order — bit-identical to one unsharded
// sweep because each fault's outcome is independent of its neighbours.
func MergeDetections(universe []core.Fault, parts []*ClassResult) ([]faultsim.Detection, error) {
	got, err := classParts(len(universe), parts)
	if err != nil {
		return nil, err
	}
	out := make([]faultsim.Detection, len(universe))
	for _, p := range got {
		for k, d := range p.Dets {
			i := p.Range.Start + k
			out[i] = faultsim.Detection{
				Fault:   universe[i],
				Method:  faultsim.DetectMethod(d.Method),
				Pattern: d.Pattern,
			}
		}
	}
	return out, nil
}

// MergeBridgeDetections is MergeDetections for the bridge universe.
func MergeBridgeDetections(universe []core.Bridge, parts []*ClassResult) ([]faultsim.BridgeDetection, error) {
	got, err := classParts(len(universe), parts)
	if err != nil {
		return nil, err
	}
	out := make([]faultsim.BridgeDetection, len(universe))
	for _, p := range got {
		for k, d := range p.Dets {
			i := p.Range.Start + k
			out[i] = faultsim.BridgeDetection{
				Bridge:   universe[i],
				Method:   faultsim.DetectMethod(d.Method),
				Pattern:  d.Pattern,
				Detected: d.Detected,
			}
		}
	}
	return out, nil
}

// Summarise is faultsim.Summarise over MergeDetections for an n-fault
// universe, computed straight from the shard records without building
// the merged detection list. Undetected faults are reported in order by
// universe index through undetected; Coverage.Undetected stays empty.
func Summarise(n int, parts []*ClassResult, undetected func(i int)) (faultsim.Coverage, error) {
	got, err := classParts(n, parts)
	if err != nil {
		return faultsim.Coverage{}, err
	}
	c := faultsim.Coverage{Total: n}
	for _, p := range got {
		for k, d := range p.Dets {
			switch faultsim.DetectMethod(d.Method) {
			case faultsim.ByOutput:
				c.ByOutput++
			case faultsim.ByIDDQ:
				c.ByIDDQ++
			case faultsim.ByTwoPattern:
				c.ByTwoPat++
			default:
				undetected(p.Range.Start + k)
				continue
			}
			c.Detected++
		}
	}
	return c, nil
}

// BridgeCoverage is faultsim.BridgeCoverage over MergeBridgeDetections
// computed straight from the shard records of an n-bridge universe.
func BridgeCoverage(n int, parts []*ClassResult) (faultsim.Coverage, error) {
	got, err := classParts(n, parts)
	if err != nil {
		return faultsim.Coverage{}, err
	}
	c := faultsim.Coverage{Total: n}
	for _, p := range got {
		for _, d := range p.Dets {
			if !d.Detected {
				continue
			}
			c.Detected++
			if faultsim.DetectMethod(d.Method) == faultsim.ByIDDQ {
				c.ByIDDQ++
			} else {
				c.ByOutput++
			}
		}
	}
	return c, nil
}

// EncodeSigRows serializes a capture's per-fault bitset rows: one
// base64 string per fault, little-endian 64-bit words.
func EncodeSigRows(c *faultsim.SignatureCapture, leak bool) []string {
	out := make([]string, c.NFaults)
	buf := make([]byte, c.Words()*8)
	for i := range out {
		row := c.Out(i)
		if leak {
			row = c.Leak(i)
		}
		for w, v := range row {
			binary.LittleEndian.PutUint64(buf[w*8:], v)
		}
		out[i] = base64.StdEncoding.EncodeToString(buf)
	}
	return out
}

// MergeSignatures reassembles one class's full signature capture from
// shard rows: the output plane always, the leak plane when withLeak
// (IDDQ-observed transistor sweeps). Parts without rows (artifacts
// written by an uncaptured run) are an error: captured and uncaptured
// shards are keyed apart, so a mismatch means a corrupted store.
func MergeSignatures(nFaults, nPatterns int, parts []*ClassResult, withLeak bool) (*faultsim.SignatureCapture, error) {
	got, err := classParts(nFaults, parts)
	if err != nil {
		return nil, err
	}
	cap := faultsim.NewSignatureCapture(nFaults, nPatterns)
	fill := func(p *ClassResult, rows []string, plane func(int) []uint64, name string) error {
		if len(rows) != p.Range.Len() {
			return fmt.Errorf("shard: range %v carries %d %s signature rows, want %d",
				p.Range, len(rows), name, p.Range.Len())
		}
		for k, s := range rows {
			if err := decodeSigRow(s, plane(p.Range.Start+k)); err != nil {
				return fmt.Errorf("shard: fault %d: %w", p.Range.Start+k, err)
			}
		}
		return nil
	}
	for _, p := range got {
		if err := fill(p, p.Out, cap.Out, "out"); err != nil {
			return nil, err
		}
		if withLeak {
			if err := fill(p, p.Leak, cap.Leak, "leak"); err != nil {
				return nil, err
			}
		}
	}
	return cap, nil
}

func decodeSigRow(s string, dst []uint64) error {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return err
	}
	if len(raw) != len(dst)*8 {
		return fmt.Errorf("signature row is %d bytes, want %d", len(raw), len(dst)*8)
	}
	for w := range dst {
		dst[w] = binary.LittleEndian.Uint64(raw[w*8:])
	}
	return nil
}
