package topo

import (
	"encoding/json"
	"fmt"

	"netsmith/internal/layout"
)

// jsonTopology is the serialized form: enough to reconstruct the
// topology and re-derive every metric. PitchMM matters: wire lengths
// (and with them analytic power, measured wire energy and the synth
// energy proxy) scale with the grid pitch, so dropping it would both
// reset custom-pitch topologies on round-trip and blind the
// content-addressed store's fingerprints to a result-changing input.
type jsonTopology struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	Cols    int      `json:"cols"`
	PitchMM float64  `json:"pitch_mm,omitempty"` // absent = NewGrid default
	Class   string   `json:"class"`
	Links   [][2]int `json:"links"` // directed
}

// MarshalJSON implements json.Marshaler.
func (t *Topology) MarshalJSON() ([]byte, error) {
	j := jsonTopology{
		Name:    t.Name,
		Rows:    t.Grid.Rows,
		Cols:    t.Grid.Cols,
		PitchMM: t.Grid.PitchMM,
		Class:   t.Class.String(),
	}
	for _, l := range t.Links() {
		j.Links = append(j.Links, [2]int{l.From, l.To})
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var j jsonTopology
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	class, err := layout.ParseClass(j.Class)
	if err != nil {
		return err
	}
	if j.Rows <= 0 || j.Cols <= 0 {
		return fmt.Errorf("topo: invalid grid %dx%d", j.Rows, j.Cols)
	}
	if j.PitchMM < 0 {
		return fmt.Errorf("topo: invalid pitch %v", j.PitchMM)
	}
	g := layout.NewGrid(j.Rows, j.Cols)
	if j.PitchMM > 0 {
		g.PitchMM = j.PitchMM
	}
	*t = *New(j.Name, g, class)
	n := t.N()
	for _, l := range j.Links {
		if l[0] < 0 || l[0] >= n || l[1] < 0 || l[1] >= n || l[0] == l[1] {
			return fmt.Errorf("topo: invalid link %v", l)
		}
		t.AddLink(l[0], l[1])
	}
	return nil
}
