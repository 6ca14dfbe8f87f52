package topo

import (
	"encoding/json"
	"testing"

	"netsmith/internal/layout"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := New("test-topo", layout.Grid4x5, layout.Medium)
	orig.AddLink(0, 1)
	orig.AddLink(1, 0)
	orig.AddLink(3, 5) // unidirectional
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "test-topo" || back.Class != layout.Medium {
		t.Errorf("metadata lost: %q %v", back.Name, back.Class)
	}
	if back.Grid.Rows != 4 || back.Grid.Cols != 5 {
		t.Error("grid lost")
	}
	if back.CanonicalLinkList() != orig.CanonicalLinkList() {
		t.Errorf("links differ: %s vs %s", back.CanonicalLinkList(), orig.CanonicalLinkList())
	}
}

func TestJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"name":"x","rows":0,"cols":5,"class":"small"}`,
		`{"name":"x","rows":2,"cols":2,"class":"giant"}`,
		`{"name":"x","rows":2,"cols":2,"class":"small","links":[[0,9]]}`,
		`{"name":"x","rows":2,"cols":2,"class":"small","links":[[1,1]]}`,
	}
	for _, c := range cases {
		var tp Topology
		if err := json.Unmarshal([]byte(c), &tp); err == nil {
			t.Errorf("input %s should fail", c)
		}
	}
}
