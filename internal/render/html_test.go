package render

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
)

func TestRenderHTMLBasics(t *testing.T) {
	tree := core.Fig1Tree()
	var b strings.Builder
	opt := Options{Totals: tree.Total}
	err := RenderHTML(&b, "Fig1", forest(tree.Root.Children, opt), tree.Reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<title>Fig1</title>",
		"<details", "</details>",
		"loop at file2.c: 8",
		"cost (I)", "cost (E)",
		"100.0%",
		"</body></html>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Details elements balance.
	if strings.Count(out, "<details") != strings.Count(out, "</details>") {
		t.Fatal("unbalanced <details>")
	}
	// Zero cells stay blank: no ">0<" cell content for m's exclusive.
	if strings.Contains(out, `<span class="m">0</span>`) {
		t.Fatal("zero rendered instead of blank")
	}
}

func TestRenderHTMLEscaping(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c<&>", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("x", reg)
	fr := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("evil<script>alert(1)</script>")}, true)
	st := fr.Child(core.Key{Kind: core.KindStmt, File: core.Sym("a&b.c"), Line: 1}, true)
	st.Base.Add(0, 3)
	tree.ComputeMetrics()
	var b strings.Builder
	if err := RenderHTML(&b, "t<&>t", forest(tree.Root.Children, Options{}), tree.Reg, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "<script>") {
		t.Fatal("label not escaped")
	}
	if !strings.Contains(out, "evil&lt;script&gt;") {
		t.Fatalf("escaped label missing:\n%s", out)
	}
	if !strings.Contains(out, "t&lt;&amp;&gt;t") {
		t.Fatal("title not escaped")
	}
}

func TestRenderHTMLHighlightAndLimits(t *testing.T) {
	tree := core.Fig1Tree()
	hl := map[*core.Node]bool{}
	for _, n := range core.HotPath(tree.Root, 0, 0.5) {
		hl[n] = true
	}
	var b strings.Builder
	opt := Options{Highlight: hl, Totals: tree.Total, TopN: 1, MaxDepth: 4}
	err := RenderHTML(&b, "hot", forest(tree.Root.Children, opt), tree.Reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `class="hot"`) && !strings.Contains(out, "leaf hot") {
		t.Fatalf("hot path not highlighted:\n%s", out)
	}
	if !strings.Contains(out, "more)") {
		t.Fatalf("top-N elision missing:\n%s", out)
	}
	// Depth limit: the statement at file2.c: 9 sits at depth 7 and must
	// be absent.
	if strings.Contains(out, "file2.c: 9<") {
		t.Fatal("depth limit ignored")
	}
}
