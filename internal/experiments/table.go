package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"sweeper/internal/machine"
	"sweeper/internal/stats"
)

// Cell is one measured configuration point of a figure: a (parameter,
// configuration) pair with the metrics the paper plots.
type Cell struct {
	// Param is the x-axis group ("512 buf/core", "D=250", "3 channels").
	Param string
	// Config is the series ("DMA", "DDIO 2", "DDIO 2+Sweeper", "Ideal").
	Config string
	// Mrps is application throughput; GBps the DRAM bandwidth at that
	// point; Breakdown the per-request DRAM access mix.
	Mrps      float64
	GBps      float64
	Breakdown [stats.NumKinds]float64
	// Extra carries figure-specific metrics (XMemIPC, p99, drop rate...).
	Extra map[string]float64
}

// WithExtra returns the cell with an extra metric attached.
func (c Cell) WithExtra(key string, v float64) Cell {
	if c.Extra == nil {
		c.Extra = map[string]float64{}
	}
	c.Extra[key] = v
	return c
}

// CellFromResults builds a cell from a measurement.
func CellFromResults(param, config string, r machine.Results) Cell {
	return Cell{
		Param:     param,
		Config:    config,
		Mrps:      r.ThroughputMrps,
		GBps:      r.MemBWGBps,
		Breakdown: r.AccessesPerRequest,
	}
}

// Table is one reproduced figure panel.
type Table struct {
	// ID matches DESIGN.md's experiment index ("fig5a").
	ID string
	// Title describes the panel.
	Title string
	// Metric is the panel's primary view: "mrps", "gbps", "breakdown" or
	// an Extra key. RenderDefault prints it.
	Metric string
	// Cells hold the measurements, in sweep order.
	Cells []Cell
}

// RenderDefault prints the panel's primary metric view.
func (t *Table) RenderDefault(w io.Writer) {
	switch t.Metric {
	case "", "mrps":
		t.Render(w, "mrps")
	case "breakdown":
		t.RenderBreakdown(w)
	default:
		t.Render(w, t.Metric)
	}
}

// Find returns the cell for (param, config), if present.
func (t *Table) Find(param, config string) (Cell, bool) {
	for _, c := range t.Cells {
		if c.Param == param && c.Config == config {
			return c, true
		}
	}
	return Cell{}, false
}

// Params returns the distinct parameter groups in first-seen order.
func (t *Table) Params() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range t.Cells {
		if !seen[c.Param] {
			seen[c.Param] = true
			out = append(out, c.Param)
		}
	}
	return out
}

// Configs returns the distinct series in first-seen order.
func (t *Table) Configs() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range t.Cells {
		if !seen[c.Config] {
			seen[c.Config] = true
			out = append(out, c.Config)
		}
	}
	return out
}

// Render prints the panel as an aligned text table: one row per config, one
// column per parameter, cells showing Mrps / GB/s (and any extras below).
func (t *Table) Render(w io.Writer, metric string) {
	fmt.Fprintf(w, "%s — %s [%s]\n", t.ID, t.Title, metric)
	params := t.Params()
	configs := t.Configs()

	fmt.Fprintf(w, "  %-22s", "")
	for _, p := range params {
		fmt.Fprintf(w, " %14s", p)
	}
	fmt.Fprintln(w)
	for _, cf := range configs {
		fmt.Fprintf(w, "  %-22s", cf)
		for _, p := range params {
			c, ok := t.Find(p, cf)
			if !ok {
				fmt.Fprintf(w, " %14s", "-")
				continue
			}
			fmt.Fprintf(w, " %14s", formatMetric(c, metric))
		}
		fmt.Fprintln(w)
	}
}

func formatMetric(c Cell, metric string) string {
	switch metric {
	case "mrps":
		return fmt.Sprintf("%.2f", c.Mrps)
	case "gbps":
		return fmt.Sprintf("%.1f", c.GBps)
	case "acc/req":
		var t float64
		for _, v := range c.Breakdown {
			t += v
		}
		return fmt.Sprintf("%.2f", t)
	default:
		if v, ok := c.Extra[metric]; ok {
			return fmt.Sprintf("%.3f", v)
		}
		return "-"
	}
}

// RenderBreakdown prints the per-request access mix for every cell,
// mirroring the paper's stacked-bar panels.
func (t *Table) RenderBreakdown(w io.Writer) {
	fmt.Fprintf(w, "%s — %s [memory accesses per request]\n", t.ID, t.Title)
	fmt.Fprintf(w, "  %-14s %-22s", "param", "config")
	for k := stats.AccessKind(0); k < stats.NumKinds; k++ {
		fmt.Fprintf(w, " %12s", k)
	}
	fmt.Fprintf(w, " %12s\n", "total")
	for _, c := range t.Cells {
		fmt.Fprintf(w, "  %-14s %-22s", c.Param, c.Config)
		var total float64
		for k := stats.AccessKind(0); k < stats.NumKinds; k++ {
			fmt.Fprintf(w, " %12.2f", c.Breakdown[k])
			total += c.Breakdown[k]
		}
		fmt.Fprintf(w, " %12.2f\n", total)
	}
}

// WriteCSV emits the table in long form: one line per (param, config) with
// every metric as a column. Fields are quoted where RFC 4180 needs it, so a
// param such as "(2,10)" stays one field.
func (t *Table) WriteCSV(w io.Writer) error {
	extraKeys := map[string]bool{}
	for _, c := range t.Cells {
		for k := range c.Extra {
			extraKeys[k] = true
		}
	}
	extras := make([]string, 0, len(extraKeys))
	for k := range extraKeys {
		extras = append(extras, k)
	}
	sort.Strings(extras)

	cols := []string{"figure", "param", "config", "mrps", "gbps"}
	for k := stats.AccessKind(0); k < stats.NumKinds; k++ {
		name := strings.ToLower(k.String())
		name = strings.ReplaceAll(name, " ", "_")
		cols = append(cols, "acc_"+name)
	}
	cols = append(cols, extras...)
	cw := csv.NewWriter(w)
	if err := cw.Write(cols); err != nil {
		return err
	}
	for _, c := range t.Cells {
		row := []string{
			t.ID,
			c.Param,
			c.Config,
			fmt.Sprintf("%.4f", c.Mrps),
			fmt.Sprintf("%.4f", c.GBps),
		}
		for k := stats.AccessKind(0); k < stats.NumKinds; k++ {
			row = append(row, fmt.Sprintf("%.4f", c.Breakdown[k]))
		}
		for _, e := range extras {
			// A missing key is "metric absent", not a measured zero:
			// emit an empty field so downstream tooling can tell them
			// apart.
			if v, ok := c.Extra[e]; ok {
				row = append(row, fmt.Sprintf("%.4f", v))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
