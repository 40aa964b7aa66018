package report

import (
	"math"
	"strings"
	"testing"

	"ccube/internal/des"
)

func TestTableRender(t *testing.T) {
	tab := New("Demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("beta-long", "22")
	tab.AddNote("calibration: %s", "x")
	out := tab.Render()
	for _, want := range []string{"Demo", "name", "alpha", "beta-long", "note: calibration: x"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + underline + header + separator + 2 rows + note.
	if len(lines) != 7 {
		t.Errorf("render has %d lines, want 7:\n%s", len(lines), out)
	}
}

func TestAddRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	New("t", "a", "b").AddRow("only-one")
}

func TestFormatters(t *testing.T) {
	cases := []struct{ got, want string }{
		{Bytes(64 << 20), "64MB"},
		{Bytes(16 << 10), "16kB"},
		{Bytes(2 << 30), "2GB"},
		{Bytes(100), "100B"},
		{Ratio(1.756), "1.76x"},
		{Percent(0.61), "61.0%"},
		{F2(3.14159), "3.14"},
		{GBps(25e9), "25.0GB/s"},
		{Time(3 * des.Millisecond), "3.000ms"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestColumnsAligned(t *testing.T) {
	tab := New("", "a", "b")
	tab.AddRow("xxxxxx", "y")
	out := tab.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	hdr := lines[0]
	row := lines[2]
	if strings.Index(hdr, "b") != strings.Index(row, "y") {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	tab := New("Title ignored", "a", "b")
	tab.AddRow("1", "x,y")
	tab.AddRow("2", "z")
	tab.AddNote("notes ignored")
	var buf strings.Builder
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "a,b\n1,\"x,y\"\n2,z\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestWriteMarkdown(t *testing.T) {
	tab := New("My Table", "a", "b")
	tab.AddRow("1", "x|y")
	tab.AddNote("a note")
	var buf strings.Builder
	if err := tab.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### My Table", "| a | b |", "|---|---|", "x\\|y", "- a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // 0: an error
	}{
		{"16M", 16 << 20},
		{"64", 64},
		{"2K", 2 << 10},
		{"1G", 1 << 30},
		{"9223372036854775807", math.MaxInt64},
		{"8589934591G", 8589934591 << 30}, // the largest G size that fits
		{"17179869185G", 0},               // wrapped to 1 GiB unchecked
		{"8796093022209M", 0},             // wrapped negative unchecked
		{"9007199254740992K", 0},
		{"0", 0},
		{"-4M", 0},
		{"M", 0},
		{"12T", 0},
	} {
		got, err := ParseBytes(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want an error", tc.in, got)
			}
		} else if err != nil || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v, want %d", tc.in, got, err, tc.want)
		}
	}
}
