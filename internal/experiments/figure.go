package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Row is one line of a wall-clock experiment table (-exp watch, -exp
// trace): a named scenario with a rate (or a count, see the producer) and
// a latency median and tail.
type Row struct {
	Scenario  string
	OpsPerSec float64
	P50us     float64
	P99us     float64
}

// Point is one measurement in a figure: series name, x value, y value.
type Point struct {
	Series string
	X      float64
	Y      float64
}

// Figure is a regenerated plot: the same series the paper draws, as rows.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Points []Point
	// PaperNote records what shape the paper reports, for side-by-side
	// reading in reports.
	PaperNote string
}

// Add appends a point.
func (f *Figure) Add(series string, x, y float64) {
	f.Points = append(f.Points, Point{Series: series, X: x, Y: y})
}

// Series returns the distinct series names in first-appearance order.
func (f *Figure) Series() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range f.Points {
		if !seen[p.Series] {
			seen[p.Series] = true
			out = append(out, p.Series)
		}
	}
	return out
}

// Get returns the y value for (series, x).
func (f *Figure) Get(series string, x float64) (float64, bool) {
	for _, p := range f.Points {
		if p.Series == series && p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Format renders the figure as an aligned text table, one row per x, one
// column per series.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	if f.PaperNote != "" {
		fmt.Fprintf(&b, "paper: %s\n", f.PaperNote)
	}
	series := f.Series()
	xsSet := map[float64]bool{}
	for _, p := range f.Points {
		xsSet[p.X] = true
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%18s", s)
	}
	fmt.Fprintf(&b, "   (%s)\n", f.YLabel)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.4g", x)
		for _, s := range series {
			if y, ok := f.Get(s, x); ok {
				fmt.Fprintf(&b, "%18s", formatY(y))
			} else {
				fmt.Fprintf(&b, "%18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatY(y float64) string {
	switch {
	case y >= 1e9:
		return fmt.Sprintf("%.2fB", y/1e9)
	case y >= 1e6:
		return fmt.Sprintf("%.2fM", y/1e6)
	case y >= 1e3:
		return fmt.Sprintf("%.1fK", y/1e3)
	default:
		return fmt.Sprintf("%.2f", y)
	}
}
