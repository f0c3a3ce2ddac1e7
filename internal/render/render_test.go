package render

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/metric"
)

func renderFig1(t *testing.T, opt Options) string {
	t.Helper()
	tree := core.Fig1Tree()
	var b strings.Builder
	if err := RenderTree(&b, tree, opt); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRenderTreeBasics(t *testing.T) {
	out := renderFig1(t, Options{})
	if !strings.Contains(out, "scope") || !strings.Contains(out, "cost (I)") || !strings.Contains(out, "cost (E)") {
		t.Fatalf("header missing:\n%s", out)
	}
	for _, want := range []string{"m", "=> f", "=> g", "=> h", "loop at file2.c: 8", "loop at file2.c: 9", "file2.c: 9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	// Percent annotations against the total of 10: m shows 100.0%.
	if !strings.Contains(out, "100.0%") {
		t.Fatalf("missing percent annotation:\n%s", out)
	}
	// m's exclusive is zero: its row must end with a blank cell, not
	// "0".
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " m ") || strings.HasSuffix(strings.TrimRight(line, " "), " m") {
			if strings.Contains(line, " 0 ") || strings.HasSuffix(line, "0") {
				t.Fatalf("zero rendered instead of blank: %q", line)
			}
		}
	}
}

func TestRenderSortsByMetric(t *testing.T) {
	out := renderFig1(t, Options{})
	// Under m, f (incl 7) must appear before g3 (incl 3).
	fIdx := strings.Index(out, "=> f")
	gIdx := strings.Index(out, "=> g")
	if fIdx < 0 || gIdx < 0 || fIdx > gIdx {
		t.Fatalf("children not sorted by inclusive cost:\n%s", out)
	}
}

func TestRenderMaxDepth(t *testing.T) {
	full := renderFig1(t, Options{})
	shallow := renderFig1(t, Options{MaxDepth: 2})
	if len(shallow) >= len(full) {
		t.Fatal("MaxDepth had no effect")
	}
	if strings.Contains(shallow, "loop at") {
		t.Fatalf("depth-2 render shows deep scopes:\n%s", shallow)
	}
}

func TestRenderTopN(t *testing.T) {
	out := renderFig1(t, Options{TopN: 1})
	if !strings.Contains(out, "more)") {
		t.Fatalf("TopN elision marker missing:\n%s", out)
	}
}

func TestRenderHighlightHotPath(t *testing.T) {
	tree := core.Fig1Tree()
	hp := core.HotPath(tree.Root, 0, 0.5)
	hl := map[*core.Node]bool{}
	for _, n := range hp {
		hl[n] = true
	}
	var b strings.Builder
	if err := RenderTree(&b, tree, Options{Highlight: hl}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	stars := strings.Count(out, "\n*")
	if stars < len(hp)-2 { // root is not rendered
		t.Fatalf("hot path marks = %d, want >= %d:\n%s", stars, len(hp)-2, out)
	}
}

func TestRenderCallersAndFlat(t *testing.T) {
	tree := core.Fig1Tree()
	cv := core.BuildCallersView(tree)
	var b strings.Builder
	if err := RenderCallers(&b, cv, tree, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "g") || !strings.Contains(b.String(), "m") {
		t.Fatalf("callers render missing rows:\n%s", b.String())
	}

	fv := core.BuildFlatView(tree)
	b.Reset()
	if err := RenderFlat(&b, fv, tree, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"file1.c", "file2.c", "=> h", "loop at file2.c: 8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flat render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderExplicitColumns(t *testing.T) {
	tree := core.Fig1Tree()
	var b strings.Builder
	err := RenderTree(&b, tree, Options{Columns: []Column{{MetricID: 0, Inclusive: true}}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "(E)") {
		t.Fatalf("exclusive column rendered despite explicit columns:\n%s", out)
	}
}

func TestRenderNoSourceMarker(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("x", reg)
	main := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("main")}, true)
	ms := main.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("memset")}, true)
	ms.NoSource = true
	ms.CallLine = 2
	s := ms.Child(core.Key{Kind: core.KindStmt, Line: 1}, true)
	s.Base.Add(0, 5)
	tree.ComputeMetrics()
	var b strings.Builder
	if err := RenderTree(&b, tree, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "memset [bin]") {
		t.Fatalf("binary-only marker missing:\n%s", b.String())
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, ""},
		{3, "3"},
		{1234, "1234"},
		{3.5, "3.50"},
		{12345, "1.23e+04"},
		{1.25e9, "1.25e+09"},
		{0.001, "1.00e-03"},
		{-12345, "-1.23e+04"},
		{-3, "-3"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v); got != c.want {
			t.Errorf("FormatValue(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestTrunc pins the label cut: at most width runes, "..." in place of what
// was cut, never inside a multi-byte rune (labels imported from pprof may be
// any UTF-8, and a split rune is invalid UTF-8 on the terminal and U+FFFD in
// the /v1/exec JSON body), and byte-for-byte the old cut on ASCII.
func TestTrunc(t *testing.T) {
	ascii50 := strings.Repeat("abcde", 10)
	cases := []struct {
		name, in string
		width    int
		want     string
	}{
		{"short", "abcdef", 10, "abcdef"},
		{"ascii cut", "abcdefghij", 8, "abcde..."},
		{"exactly labelWidth", ascii50[:labelWidth], labelWidth, ascii50[:labelWidth]},
		{"one over labelWidth", ascii50[:labelWidth+1], labelWidth, ascii50[:labelWidth-3] + "..."},
		{"bin suffix fits", ascii50[:labelWidth-6] + " [bin]", labelWidth, ascii50[:labelWidth-6] + " [bin]"},
		{"bin suffix cut", ascii50[:labelWidth-5] + " [bin]", labelWidth, ascii50[:labelWidth-5] + " [..."},
		// Byte 41 of the old cut falls inside the two-byte 'é'.
		{"cut inside rune", strings.Repeat("x", 40) + "ééééé", labelWidth, strings.Repeat("x", 40) + "é..."},
		{"wide bytes, few runes", strings.Repeat("日", 20), labelWidth, strings.Repeat("日", 20)},
		{"exactly labelWidth runes", strings.Repeat("é", labelWidth), labelWidth, strings.Repeat("é", labelWidth)},
		{"runes over", strings.Repeat("é", labelWidth+1), labelWidth, strings.Repeat("é", labelWidth-3) + "..."},
		{"invalid byte counts as one", strings.Repeat("\xff", 10), 8, strings.Repeat("\xff", 5) + "..."},
	}
	for _, c := range cases {
		got := string(trunc(append([]byte("12 "), c.in...), 3, c.width))
		if got != "12 "+c.want {
			t.Errorf("%s: trunc(%q, %d) = %q, want %q", c.name, c.in, c.width, got[3:], c.want)
		}
		if utf8.ValidString(c.in) && !utf8.ValidString(got) {
			t.Errorf("%s: trunc(%q, %d) = %q is not valid UTF-8", c.name, c.in, c.width, got)
		}
		if n := utf8.RuneCountInString(got[3:]); n > c.width {
			t.Errorf("%s: %d runes, want at most %d", c.name, n, c.width)
		}
	}
}

// TestRenderMultiByteLabel renders a scope whose label is cut inside a rune
// by a byte-indexed trunc: the line must be valid UTF-8, the label column
// exactly labelWidth runes wide, and the metric cells aligned with an ASCII
// row's.
func TestRenderMultiByteLabel(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("x", reg)
	wide := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym(strings.Repeat("x", 39) + "ééééé/pkg.Func")}, true)
	wide.NoSource = true
	plain := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("plain")}, true)
	for _, n := range []*core.Node{wide, plain} {
		n.Child(core.Key{Kind: core.KindStmt, Line: 1}, true).Base.Add(0, 5)
	}
	tree.ComputeMetrics()
	var b strings.Builder
	if err := RenderTree(&b, tree, Options{MaxDepth: 1}); err != nil {
		t.Fatal(err)
	}
	if !utf8.ValidString(b.String()) {
		t.Fatalf("render is not valid UTF-8:\n%q", b.String())
	}
	lines := strings.Split(b.String(), "\n")[2:4]
	for _, line := range lines {
		if r := []rune(line); string(r[labelWidth:]) != "          5  50.0%          5  50.0%" {
			t.Errorf("cells of %q start at the wrong column: %q", line, string(r[labelWidth:]))
		}
	}
	if want := " " + strings.Repeat("x", 39) + "é..."; !strings.HasPrefix(lines[0], want) && !strings.HasPrefix(lines[1], want) {
		t.Errorf("cut label missing from %q", lines)
	}
}

func TestRenderDeterministic(t *testing.T) {
	a := renderFig1(t, Options{})
	b := renderFig1(t, Options{})
	if a != b {
		t.Fatal("render not deterministic")
	}
}
