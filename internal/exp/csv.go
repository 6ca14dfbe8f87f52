package exp

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV emitters: every driver's rows can be exported as comma-separated
// series for external plotting, mirroring the paper's figure axes.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// Fig1CSV emits topology, class, latency_ns, saturation_pkt_node_ns.
func Fig1CSV(w io.Writer, points []Fig1Point) error {
	rows := make([][]string, len(points))
	for i, p := range points {
		rows[i] = []string{p.Topology, p.Class, f(p.ZeroLoadNs), f(p.SaturationPerNs),
			strconv.FormatBool(p.NetSmith)}
	}
	return writeCSV(w, []string{"topology", "class", "latency_ns", "saturation_pkt_node_ns", "netsmith"}, rows)
}

// Table2CSV emits the topology metrics table.
func Table2CSV(w io.Writer, rows []Table2Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{strconv.Itoa(r.Routers), r.Class, r.Topology,
			strconv.Itoa(r.Links), strconv.Itoa(r.Diameter), f(r.AvgHops), strconv.Itoa(r.Bisection),
			f(r.PaperAvgHops), strconv.Itoa(r.PaperBisection)}
	}
	return writeCSV(w, []string{"routers", "class", "topology", "links", "diameter",
		"avg_hops", "bisection", "paper_avg_hops", "paper_bisection"}, out)
}

// Fig5CSV emits one row per progress sample.
func Fig5CSV(w io.Writer, traces []Fig5Trace) error {
	var out [][]string
	for _, tr := range traces {
		for _, p := range tr.Points {
			out = append(out, []string{tr.Grid, tr.Class,
				strconv.FormatInt(p.Steps, 10), f(p.Incumbent), f(p.Bound), f(p.Gap)})
		}
	}
	return writeCSV(w, []string{"grid", "class", "steps", "incumbent", "bound", "gap"}, out)
}

// Fig6CSV emits the full latency-vs-injection curves.
func Fig6CSV(w io.Writer, curves []Fig6Curve) error {
	var out [][]string
	for _, c := range curves {
		for _, p := range c.Sweep.Points {
			out = append(out, []string{c.Topology, c.Class, c.Pattern,
				f(p.OfferedRate), f(p.AvgLatencyNs), f(p.AcceptedPerNs),
				strconv.FormatBool(p.Saturated)})
		}
	}
	return writeCSV(w, []string{"topology", "class", "pattern", "offered_pkt_node_cycle",
		"latency_ns", "accepted_pkt_node_ns", "saturated"}, out)
}

// Fig7CSV emits measured vs bound throughput.
func Fig7CSV(w io.Writer, rows []Fig7Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Topology, f(r.NDBT), f(r.MCLB), f(r.CutBound), f(r.OccupancyBound)}
	}
	return writeCSV(w, []string{"topology", "ndbt", "mclb", "cut_bound", "occupancy_bound"}, out)
}

// Fig8CSV emits the PARSEC study.
func Fig8CSV(w io.Writer, rows []Fig8Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Benchmark, r.Topology, r.Class, f(r.Speedup), f(r.LatencyReduction)}
	}
	return writeCSV(w, []string{"benchmark", "topology", "class", "speedup", "latency_reduction"}, out)
}

// Fig9CSV emits mesh-normalized power/area.
func Fig9CSV(w io.Writer, rows []Fig9Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Topology, r.Class, f(r.Dynamic), f(r.Leakage), f(r.Total),
			f(r.RouterAreaR), f(r.WireAreaR), f(r.TotalAreaR)}
	}
	return writeCSV(w, []string{"topology", "class", "dynamic", "leakage", "total",
		"router_area", "wire_area", "total_area"}, out)
}

// Fig10CSV emits the shuffle study curves.
func Fig10CSV(w io.Writer, curves []Fig10Curve) error {
	var out [][]string
	for _, c := range curves {
		for _, p := range c.Sweep.Points {
			out = append(out, []string{c.Topology, c.Class,
				f(p.OfferedRate), f(p.AvgLatencyNs), f(p.AcceptedPerNs)})
		}
	}
	return writeCSV(w, []string{"topology", "class", "offered_pkt_node_cycle",
		"latency_ns", "accepted_pkt_node_ns"}, out)
}

// Fig11CSV emits the 48-router study curves.
func Fig11CSV(w io.Writer, curves []Fig11Curve) error {
	var out [][]string
	for _, c := range curves {
		for _, p := range c.Sweep.Points {
			out = append(out, []string{c.Topology, c.Class,
				f(p.OfferedRate), f(p.AvgLatencyNs), f(p.AcceptedPerNs)})
		}
	}
	return writeCSV(w, []string{"topology", "class", "offered_pkt_node_cycle",
		"latency_ns", "accepted_pkt_node_ns"}, out)
}
