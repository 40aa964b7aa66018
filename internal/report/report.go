// Package report renders experiment results as aligned text tables — the
// rows/series each paper figure reports, in a form diffable across runs.
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ccube/internal/des"
)

// Table is a titled grid of cells with optional footnotes.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// New returns a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
		fmt.Fprintf(&b, "%s\n", strings.Repeat("=", len(t.Title)))
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Bytes renders a byte count in human units (power-of-two).
func Bytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dkB", n>>10)
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ParseBytes parses a positive byte count with an optional power-of-two
// K, M or G suffix, e.g. "16M", the sizes the CLIs and the service accept.
// A size that does not fit in an int64 is an error.
func ParseBytes(s string) (int64, error) {
	orig, mult := s, int64(1)
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q overflows int64", orig)
	}
	return v * mult, nil
}

// Time renders a virtual time.
func Time(t des.Time) string { return t.String() }

// Ratio renders a dimensionless ratio with two decimals and an "x" suffix.
func Ratio(r float64) string { return fmt.Sprintf("%.2fx", r) }

// Percent renders a fraction as a percentage.
func Percent(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// F2 renders a float with two decimals.
func F2(f float64) string { return fmt.Sprintf("%.2f", f) }

// GBps renders a bandwidth in GB/s.
func GBps(bytesPerSec float64) string { return fmt.Sprintf("%.1fGB/s", bytesPerSec/1e9) }
