package render

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/metric"
)

// The fmt-based formatter the append-based one replaced, kept as the
// oracle: every line the renderer writes must be byte-identical to what
// these produce.

func oracleFormatValue(v float64) string {
	if v == 0 {
		return ""
	}
	a := math.Abs(v)
	if a >= 1e4 || a < 1e-2 {
		return fmt.Sprintf("%.2e", v)
	}
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// oracleCell is the old renderer.cell: percent is annotated when the
// column shows percents and a non-zero total exists.
func oracleCell(v float64, showPercent bool, totals func(int) float64) string {
	if v == 0 {
		return ""
	}
	s := oracleFormatValue(v)
	if totals != nil && showPercent {
		if tot := totals(0); tot != 0 {
			s += fmt.Sprintf(" %5.1f%%", 100*v/tot)
		}
	}
	return s
}

// oracleTrunc is the old byte-indexed trunc; it agrees with the rune-aware
// one on ASCII and on anything no longer than n bytes.
func oracleTrunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// oracleRuneTrunc is the rune-aware reference for labels the byte-indexed
// cut would split: at most n runes, as fmt's %-*s counts them (an invalid
// byte is one), with the last three "..." when it cut, and every kept byte
// as it was.
func oracleRuneTrunc(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	k := 0
	for i := range s {
		if k == n-3 {
			return s[:i] + "..."
		}
		k++
	}
	panic("unreachable")
}

// oracleLabelTrunc cuts a line's label column: the old byte-indexed cut
// for ASCII, the rune-aware reference for anything else.
func oracleLabelTrunc(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return oracleRuneTrunc(s, labelWidth)
		}
	}
	return oracleTrunc(s, labelWidth)
}

// oracleRow is the old renderer.row, with the rune-aware cut for labels
// that are not ASCII.
func oracleRow(idx int, row Row, highlight bool, cells []string) string {
	var b strings.Builder
	mark, expander := " ", " "
	if highlight {
		mark = "*"
	}
	if row.HasHidden {
		expander = "+"
	}
	glyph := ""
	if row.Node.Kind == core.KindCallSite || row.Node.Kind == core.KindFrame && row.Node.CallLine > 0 {
		glyph = "=> "
	}
	label := fmt.Sprintf("%3d %s%s%s%s%s", idx, mark, strings.Repeat("  ", row.Depth), expander, glyph, row.Node.Label())
	if binaryOnly(row.Node) {
		label += " [bin]"
	}
	fmt.Fprintf(&b, "%-*s", labelWidth, oracleLabelTrunc(label))
	for _, c := range cells {
		fmt.Fprintf(&b, " %*s", cellWidth, c)
	}
	return strings.TrimRight(b.String(), " ") + "\n"
}

// cellOf formats one cell through the real formatter: a one-column
// renderer over a one-scope tree.
func cellOf(t testing.TB, v, total float64, showPercent, withTotals bool) string {
	t.Helper()
	reg := metric.NewRegistry()
	d, err := reg.AddRaw("c", "u", 1)
	if err != nil {
		t.Fatal(err)
	}
	d.ShowPercent = showPercent
	tree := core.NewTree("x", reg)
	n := tree.Root.Child(core.Key{Kind: core.KindProc, Name: core.Sym("p")}, true)
	n.Incl.Set(0, v)
	opt := Options{Columns: []Column{{MetricID: 0, Inclusive: true}}}
	if withTotals {
		opt.Totals = func(int) float64 { return total }
	}
	var out bytes.Buffer
	r := newRenderer(&out, reg, opt)
	if err := r.line(n, 0, 0); err != nil {
		t.Fatal(err)
	}
	// " p" + padding to labelWidth, then " " + the right-aligned cell.
	line := strings.TrimSuffix(out.String(), "\n")
	if len(line) <= labelWidth+1 {
		return ""
	}
	return strings.TrimLeft(line[labelWidth+1:], " ")
}

func checkCell(t testing.TB, v, total float64, showPercent, withTotals bool) {
	t.Helper()
	var totals func(int) float64
	if withTotals {
		totals = func(int) float64 { return total }
	}
	want := oracleCell(v, showPercent, totals)
	if got := cellOf(t, v, total, showPercent, withTotals); got != want {
		t.Fatalf("cell(v=%v [%#x], total=%v, pct=%v, totals=%v) = %q, oracle %q",
			v, math.Float64bits(v), total, showPercent, withTotals, got, want)
	}
	if got, want := FormatValue(v), oracleFormatValue(v); got != want {
		t.Fatalf("FormatValue(%v) = %q, oracle %q", v, got, want)
	}
}

// cellSeeds are the values where the formats switch or rounding is decided
// by the last bit: ties of both fixed-point formats, the zeros, the
// non-finite values, subnormals, and the neighbourhoods of 1e-2, 1e4 and
// 1e12.
var cellSeeds = []float64{
	0, math.Copysign(0, -1), 1, -1, 3.5, -3.5, 0.5, 0.05, 0.25, 0.35, 0.45, 1.005, 1.015, 1.025, 2.675,
	0.125, 0.375, 1.125, 99.995, 999.995, 9999.995, 9999.5, 9999, 10000, 10000.5, 0.01, 0.0099999, 0.010001,
	0.005, 0.015, 0.994999, 0.995, 0.9951, 1e-2, 1e4, 1e12, 1e12 + 0.5, 9.99e11, 123456.789, 4.35, 4.45, 8.345,
	math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64,
	-math.MaxFloat64, math.Nextafter(0.125, 1), math.Nextafter(0.125, 0), math.Nextafter(1e4, 0),
	math.Nextafter(1e-2, 0), math.Nextafter(1e-2, 1), 1e7 - 0.05, 1e7 + 0.05, 99999999.95, 1e9, 1e15,
}

var totalSeeds = []float64{0, 1, 3, 7, 10, 1000, 1e-3, 0.3, -4, 1e300, 5e-324, math.NaN(), math.Inf(1)}

// TestFormatterMatchesFmt is the differential test: the append-based
// formatter against the fmt oracle over the seeds (every value against
// every total, percent on, off and absent) and over random values drawn
// around every decade, with ties forced.
func TestFormatterMatchesFmt(t *testing.T) {
	for _, v := range cellSeeds {
		for _, tot := range totalSeeds {
			checkCell(t, v, tot, true, true)
			checkCell(t, -v, tot, true, true)
		}
		checkCell(t, v, 10, false, true)
		checkCell(t, v, 10, true, false)
	}
	rng := rand.New(rand.NewSource(1))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := 0; i < n; i++ {
		v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-6))
		switch rng.Intn(4) {
		case 0: // a tie, or next to one, at the first or second decimal
			v = math.Round(v*100)/100 + 0.005
		case 1:
			v = math.Round(v*10)/10 + 0.05
		}
		tot := totalSeeds[rng.Intn(len(totalSeeds))]
		if rng.Intn(2) == 0 {
			tot = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-3))
		}
		checkCell(t, v, tot, true, true)
	}
}

// FuzzFormatCell lets the fuzzer look for a value/total pair whose cell
// differs from the fmt oracle's.
func FuzzFormatCell(f *testing.F) {
	for _, v := range cellSeeds {
		for _, tot := range []float64{0, 3, 10, -4, 1e300} {
			f.Add(v, tot, true)
		}
		f.Add(v, 10.0, false)
	}
	f.Fuzz(func(t *testing.T, v, tot float64, showPercent bool) {
		checkCell(t, v, tot, showPercent, true)
		checkCell(t, v, tot, showPercent, false)
	})
}

// TestRowLayoutMatchesFmt checks whole numbered lines — row number, mark,
// indentation, expander, glyph, label, [bin], padding, cells, trimmed tail —
// against the old layout: ASCII labels of every length around labelWidth,
// labels of 40–50 bytes with and without [bin] and "=> " at depths up to
// 40, row numbers past 1 000, and UTF-8 labels whose runes straddle the
// cut, which are checked against the rune-aware reference.
func TestRowLayoutMatchesFmt(t *testing.T) {
	reg := metric.NewRegistry()
	for _, name := range []string{"cycles", "a-rather-long-metric-name"} {
		if _, err := reg.AddRaw(name, "u", 1); err != nil {
			t.Fatal(err)
		}
	}
	tree := core.NewTree("x", reg)
	var rows []Row
	add := func(k core.Key, depth int, hidden, noSource bool, callLine int, v0, v1 float64) {
		k.Line += len(rows) // keep sibling keys distinct
		n := tree.Root.Child(k, true)
		n.NoSource, n.CallLine = noSource, callLine
		n.Incl.Set(0, v0)
		n.Excl.Set(1, v1)
		rows = append(rows, Row{Node: n, Depth: depth, HasHidden: hidden})
	}
	for l := 1; l <= 60; l++ {
		name := strings.Repeat("x", l)
		add(core.Key{Kind: core.KindFrame, Name: core.Sym(name)}, l%4, l%2 == 0, l%3 == 0, l%5, float64(l)*1.37, 0)
	}
	add(core.Key{Kind: core.KindProc, Name: core.Sym("größe_αβγ")}, 1, true, true, 0, 12345.678, 0.004)
	add(core.Key{Kind: core.KindCallSite, Name: core.Sym("日本語")}, 3, false, false, 0, 0, -7)
	add(core.Key{Kind: core.KindLoop, File: core.Sym("dir/a.c"), Line: 12}, 2, false, false, 0, 0, 0)
	add(core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 7}, 20, false, false, 0, 1, 1)
	add(core.Key{Kind: core.KindAlien, Name: core.Sym("inl")}, 0, true, false, 3, 99.995, 1e9)
	// Labels of 40–50 bytes at depths 0–40: a Frame with a call line takes
	// the "=> " glyph, a Proc does not, and either may carry " [bin]".
	for depth := 0; depth <= 40; depth += 8 {
		for l := 40; l <= 50; l++ {
			for _, kind := range []core.Kind{core.KindFrame, core.KindProc} {
				for _, noSource := range []bool{false, true} {
					name := core.Sym(strings.Repeat("abcdefghij", 5)[:l])
					add(core.Key{Kind: kind, Name: name}, depth, l%2 == 0, noSource, depth%3, float64(l), -float64(depth))
				}
			}
		}
	}
	// Multi-byte runes at every offset around the cut, at depths where the
	// label starts on either side of it.
	for _, r := range []string{"é", "日", "😀", "\xff"} {
		for pre := 30; pre <= 46; pre++ {
			for _, depth := range []int{0, 1, 2, 5} {
				name := core.Sym(strings.Repeat("y", pre) + strings.Repeat(r, 6))
				add(core.Key{Kind: core.KindFrame, Name: name}, depth, pre%2 == 0, pre%3 == 0, pre%2, 1e5, 0.5)
			}
		}
	}
	// Enough rows that the row numbers pass 1 000.
	for len(rows) <= 1050 {
		i := len(rows)
		add(core.Key{Kind: core.KindStmt, File: core.Sym("src/file.c")}, i%41, i%2 == 0, false, 0, float64(i), float64(i%7))
	}
	hl := map[*core.Node]bool{rows[3].Node: true, rows[50].Node: true, rows[1020].Node: true}
	totals := func(id int) float64 { return []float64{82.2, 0}[id] }

	var got bytes.Buffer
	if err := RenderRows(&got, rows, reg, Options{Totals: totals, Highlight: hl}); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	fmt.Fprintf(&want, "%-*s", labelWidth, "scope")
	for _, name := range []string{"cycles (I)", "cycles (E)", "a-rather-long-metric-name (I)", "a-rather-long-metric-name (E)"} {
		fmt.Fprintf(&want, " %*s", cellWidth, oracleTrunc(name, cellWidth))
	}
	fmt.Fprintf(&want, "\n%s\n", strings.Repeat("-", labelWidth+(cellWidth+1)*4))
	for i, row := range rows {
		n := row.Node
		want.WriteString(oracleRow(i, row, hl[n], []string{
			oracleCell(n.Incl.Get(0), true, totals), oracleCell(n.Excl.Get(0), true, totals),
			oracleCell(n.Incl.Get(1), true, func(int) float64 { return 0 }), oracleCell(n.Excl.Get(1), true, func(int) float64 { return 0 }),
		}))
	}
	if got.String() != want.String() {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				t.Fatalf("line %d differs:\n got %q\nwant %q", i, g[i], w[min(i, len(w)-1)])
			}
		}
		t.Fatalf("got %d lines, want %d", len(g), len(w))
	}
}

// rowKinds are the scope kinds FuzzRenderRow draws from.
var rowKinds = []core.Kind{core.KindFrame, core.KindLoop, core.KindAlien, core.KindStmt, core.KindLM, core.KindFile, core.KindProc, core.KindCallSite}

// FuzzRenderRow lets the fuzzer look for a numbered line — any label at any
// depth and row number, any kind, two cells — that differs from the
// oracle's.
func FuzzRenderRow(f *testing.F) {
	f.Add("main", uint8(0), uint16(0), uint8(0), 1.0, 0.0, false, false)
	f.Add(strings.Repeat("x", 45), uint8(1), uint16(1234), uint8(7), 12345.678, 0.004, true, true)
	f.Add(strings.Repeat("y", 39)+"ééééé", uint8(0), uint16(99), uint8(0), -7.0, 1e9, true, false)
	f.Add("日本語", uint8(40), uint16(100), uint8(6), 99.995, math.NaN(), false, true)
	f.Add("a.c", uint8(3), uint16(10), uint8(1), 0.0, 5e-324, true, true)
	f.Fuzz(func(t *testing.T, label string, depth uint8, idx uint16, kind uint8, v0, v1 float64, hidden, noSource bool) {
		reg := metric.NewRegistry()
		for _, name := range []string{"M0", "M1"} {
			if _, err := reg.AddRaw(name, "u", 1); err != nil {
				t.Fatal(err)
			}
		}
		tree := core.NewTree("x", reg)
		k := rowKinds[int(kind)%len(rowKinds)]
		n := tree.Root.Child(core.Key{Kind: k, Name: core.Sym(label), File: core.Sym(label), Line: int(idx)}, true)
		n.NoSource, n.CallLine = noSource, int(idx%3)
		n.Incl.Set(0, v0)
		n.Excl.Set(1, v1)
		row := Row{Node: n, Depth: int(depth % 41), HasHidden: hidden}
		totals := func(id int) float64 { return []float64{82.2, 0}[id] }
		var got bytes.Buffer
		r := newRenderer(&got, reg, Options{Columns: []Column{{MetricID: 0, Inclusive: true}, {MetricID: 1}}, Totals: totals})
		if err := r.row(int(idx), row); err != nil {
			t.Fatal(err)
		}
		want := oracleRow(int(idx), row, false, []string{oracleCell(n.Incl.Get(0), true, totals), oracleCell(n.Excl.Get(1), true, nil)})
		if got.String() != want {
			t.Fatalf("row differs:\n got %q\nwant %q", got.String(), want)
		}
	})
}

// syntheticRows builds n rows over one store: every scope kind the label
// formatter distinguishes, some cells blank, some labels cut.
func syntheticRows(tb testing.TB, n int) ([]Row, *core.Tree) {
	tb.Helper()
	reg := metric.NewRegistry()
	for _, name := range []string{"M0", "M1"} {
		if _, err := reg.AddRaw(name, "u", 1); err != nil {
			tb.Fatal(err)
		}
	}
	tree := core.NewTree("x", reg)
	rows := make([]Row, n)
	for i := range rows {
		k := core.Key{Kind: core.KindFrame, Name: core.Sym("procedure_with_a_long_name"), Line: i}
		switch i % 3 {
		case 1:
			k = core.Key{Kind: core.KindLoop, File: core.Sym("src/file.c"), Line: i}
		case 2:
			k = core.Key{Kind: core.KindStmt, File: core.Sym("src/file.c"), Line: i}
		}
		s := tree.Root.AppendChild(k)
		s.Incl.Set(0, float64(i)*1.37+1)
		if i%2 == 0 {
			s.Excl.Set(1, float64(i)+0.5)
		}
		rows[i] = Row{Node: s, Depth: i % 17, HasHidden: i%5 == 0}
	}
	tree.Root.Incl.Set(0, float64(n)*1.37+1)
	return rows, tree
}

// TestRenderRowsAllocations is the row path's allocation contract: the
// renderer, its columns and its line buffer, whatever the row count.
func TestRenderRowsAllocations(t *testing.T) {
	for _, n := range []int{10, 10_000} {
		rows, tree := syntheticRows(t, n)
		opt := Options{Totals: tree.Total}
		allocs := testing.AllocsPerRun(5, func() {
			if err := RenderRows(io.Discard, rows, tree.Reg, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("RenderRows of %d rows allocates %v objects, want at most 4", n, allocs)
		}
	}
}
