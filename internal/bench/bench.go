// Package bench is the experiment harness: one runner per table and figure
// in the paper's evaluation (§8), each regenerating the same rows or series
// the paper reports. The runners are shared by the root-level Go benchmarks
// (bench_test.go) and the cowbird-bench CLI.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// OpsPerThread scales simulation length; tests lower it for speed.
var OpsPerThread = 2500

// Series is one curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Row is one row of a table experiment.
type Row struct {
	Label  string
	Values []string
}

// Experiment is a regenerated table or figure.
type Experiment struct {
	ID     string // e.g. "fig8a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Cols   []string // table experiments
	Rows   []Row
	Notes  []string
}

// Render formats the experiment as aligned text (gnuplot-style series or a
// table).
func (e Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", e.ID, e.Title)
	if len(e.Rows) > 0 {
		w := len("row")
		for _, r := range e.Rows {
			if len(r.Label) > w {
				w = len(r.Label)
			}
		}
		fmt.Fprintf(&b, "%-*s", w+2, "")
		for _, c := range e.Cols {
			fmt.Fprintf(&b, " %14s", c)
		}
		b.WriteByte('\n')
		for _, r := range e.Rows {
			fmt.Fprintf(&b, "%-*s", w+2, r.Label)
			for _, v := range r.Values {
				fmt.Fprintf(&b, " %14s", v)
			}
			b.WriteByte('\n')
		}
	}
	if len(e.Series) > 0 {
		w := 0
		for _, s := range e.Series {
			if len(s.Label) > w {
				w = len(s.Label)
			}
		}
		fmt.Fprintf(&b, "%-*s |", w+2, e.XLabel)
		for _, x := range e.Series[0].X {
			fmt.Fprintf(&b, " %8.4g", x)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "%s-+%s\n", strings.Repeat("-", w+2), strings.Repeat("-", 9*len(e.Series[0].X)))
		for _, s := range e.Series {
			fmt.Fprintf(&b, "%-*s |", w+2, s.Label)
			for _, y := range s.Y {
				fmt.Fprintf(&b, " %8.3f", y)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "(y: %s)\n", e.YLabel)
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Get returns the series with the given label.
func (e Experiment) Get(label string) (Series, bool) {
	for _, s := range e.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}

// Last returns the final Y value of a series.
func (s Series) Last() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// At returns the Y value at x.
func (s Series) At(x float64) float64 {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return 0
}

// registry maps experiment IDs to builders.
var registry = map[string]func() Experiment{
	"fig1":   Fig1,
	"fig2":   Fig2,
	"table1": Table1,
	"fig8a":  func() Experiment { return Fig8('a') },
	"fig8b":  func() Experiment { return Fig8('b') },
	"fig8c":  func() Experiment { return Fig8('c') },
	"fig8d":  func() Experiment { return Fig8('d') },
	"fig9a":  func() Experiment { return Fig9('a') },
	"fig9b":  func() Experiment { return Fig9('b') },
	"fig10a": func() Experiment { return Fig10('a') },
	"fig10b": func() Experiment { return Fig10('b') },
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"table5": Table5,
}

// IDs lists all experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ByID runs one experiment.
func ByID(id string) (Experiment, error) {
	f, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return f(), nil
}

// All runs every experiment.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range IDs() {
		e, _ := ByID(id)
		out = append(out, e)
	}
	return out
}
