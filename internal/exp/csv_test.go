package exp

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"netsmith/internal/sim"
	"netsmith/internal/synth"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFig1CSV(t *testing.T) {
	pts := []Fig1Point{
		{Topology: "Kite-Small", Class: "small", ZeroLoadNs: 2.8, SaturationPerNs: 0.5},
		{Topology: "NS-LatOp-small", Class: "small", NetSmith: true, ZeroLoadNs: 2.7, SaturationPerNs: 0.55},
	}
	var buf bytes.Buffer
	if err := Fig1CSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	if rows[0][0] != "topology" || rows[2][4] != "true" {
		t.Errorf("csv content wrong: %v", rows)
	}
}

func TestTable2CSV(t *testing.T) {
	var buf bytes.Buffer
	err := Table2CSV(&buf, []Table2Row{{Routers: 20, Class: "medium", Topology: "X",
		Links: 40, Diameter: 4, AvgHops: 2.1, Bisection: 10, PaperAvgHops: 2.06, PaperBisection: 10}})
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if rows[1][5] != "2.1" || rows[1][7] != "2.06" {
		t.Errorf("csv values wrong: %v", rows[1])
	}
}

func TestFig5CSVFlattensTraces(t *testing.T) {
	traces := []Fig5Trace{{
		Grid: "4x5", Class: "small",
		Points: []synth.ProgressPoint{
			{Steps: 60000, Incumbent: 900, Bound: 800, Gap: 0.11},
			{Steps: 123457, Incumbent: 850, Bound: 800, Gap: 0.06},
		},
	}}
	var buf bytes.Buffer
	if err := Fig5CSV(&buf, traces); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][2] != "steps" || rows[1][2] != "60000" || rows[2][2] != "123457" {
		t.Errorf("steps column wrong: %v", rows)
	}
}

func TestCurveCSVs(t *testing.T) {
	sweep := &sim.SweepResult{Points: []sim.SweepPoint{
		{OfferedRate: 0.01, AvgLatencyNs: 3, AcceptedPerNs: 0.03},
		{OfferedRate: 0.2, AvgLatencyNs: 30, AcceptedPerNs: 0.4, Saturated: true},
	}}
	var buf bytes.Buffer
	if err := Fig6CSV(&buf, []Fig6Curve{{Topology: "T", Class: "large", Pattern: "uniform", Sweep: sweep}}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "true") || !strings.Contains(got, "uniform") {
		t.Errorf("fig6 csv missing fields:\n%s", got)
	}
	buf.Reset()
	if err := Fig10CSV(&buf, []Fig10Curve{{Topology: "T", Class: "small", Sweep: sweep}}); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, &buf); len(rows) != 3 {
		t.Errorf("fig10 rows = %d", len(rows))
	}
	buf.Reset()
	if err := Fig11CSV(&buf, []Fig11Curve{{Topology: "T", Class: "small", Sweep: sweep}}); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, &buf); len(rows) != 3 {
		t.Errorf("fig11 rows = %d", len(rows))
	}
}

func TestFig789CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7CSV(&buf, []Fig7Row{{Topology: "T", NDBT: 0.3, MCLB: 0.4, CutBound: 0.6, OccupancyBound: 0.8}}); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, &buf); rows[1][2] != "0.4" {
		t.Errorf("fig7 csv: %v", rows)
	}
	buf.Reset()
	if err := Fig8CSV(&buf, []Fig8Row{{Benchmark: "canneal", Topology: "T", Class: "large", Speedup: 1.03, LatencyReduction: 0.2}}); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, &buf); rows[1][0] != "canneal" {
		t.Errorf("fig8 csv: %v", rows)
	}
	buf.Reset()
	if err := Fig9CSV(&buf, []Fig9Row{{Topology: "T", Class: "small"}}); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, &buf); len(rows) != 2 {
		t.Errorf("fig9 csv: %v", rows)
	}
}
