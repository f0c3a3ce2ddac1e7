// The conformance matrix (DESIGN.md §4.4a, §13): every tree source the
// tests know, through every database format and every way a database is
// opened, checked against internal/oracle, the paper's rules stated once.
// Every cell runs the same checks; a route that cannot hold something (a
// format without a provenance section, pprof's raw samples) is checked on
// everything it does hold, and pprof export refuses a source whose costs
// are not whole numbers.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/bench/gen"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/ingest"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/oracle"
	"repro/internal/pprofio"
	"repro/internal/profile"
	"repro/internal/render"
	"repro/internal/server"
	"repro/internal/source"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// confFormats are the encoders, pprof export among them.
var confFormats = []struct {
	name  string
	write func(*expdb.Experiment, io.Writer) error
}{
	{"xml", (*expdb.Experiment).WriteXML},
	{"v1", (*expdb.Experiment).WriteBinaryV1},
	{"v2", (*expdb.Experiment).WriteBinary},
	{"v3", (*expdb.Experiment).WriteBinaryV3},
	{"pprof", pprofio.Export},
}

func encode(t *testing.T, write func(*expdb.Experiment, io.Writer) error, e *expdb.Experiment) []byte {
	t.Helper()
	b, err := tryEncode(write, e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tryEncode is encode for a writer that may refuse e.
func tryEncode(write func(*expdb.Experiment, io.Writer) error, e *expdb.Experiment) ([]byte, error) {
	var buf bytes.Buffer
	err := write(e, &buf)
	return buf.Bytes(), err
}

// A confRoute is one way a database reaches a session. holds names what it
// keeps of an experiment: "all", "noprov" (everything but the provenance
// section) or "raw" (raw columns only).
type confRoute struct {
	name, holds string
	open        func(t *testing.T, e *expdb.Experiment) *engine.Snapshot
}

func confRoutes() []confRoute {
	routes := []confRoute{{"memory", "all", func(_ *testing.T, e *expdb.Experiment) *engine.Snapshot { return engine.NewSnapshot(e) }}}
	for _, f := range confFormats[:4] {
		holds := "all"
		if f.name == "xml" || f.name == "v1" {
			holds = "noprov"
		}
		routes = append(routes, confRoute{"read/" + f.name, holds, func(t *testing.T, e *expdb.Experiment) *engine.Snapshot {
			got, err := expdb.Read(bytes.NewReader(encode(t, f.write, e)))
			if err != nil {
				t.Fatal(err)
			}
			return engine.NewSnapshot(got)
		}}, confRoute{"open/" + f.name, holds, func(t *testing.T, e *expdb.Experiment) *engine.Snapshot {
			path := filepath.Join(t.TempDir(), "experiment.db")
			if err := os.WriteFile(path, encode(t, f.write, e), 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := engine.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if mapped := snap.MappedBytes() != nil; mapped != (f.name == "v3") {
				t.Errorf("opened on the mapped path: %v", mapped)
			}
			return snap
		}})
	}
	return append(routes, confRoute{"pprof", "raw", func(t *testing.T, e *expdb.Experiment) *engine.Snapshot {
		im, err := pprofio.Import(bytes.NewReader(encode(t, pprofio.Export, e)))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := source.BuildTree(im)
		if err != nil {
			t.Fatal(err)
		}
		return engine.NewSnapshot(&expdb.Experiment{Program: im.Program(), NRanks: im.NRanks(), Tree: tree})
	}})
}

// confRef is what a route must give of one source: the experiment it holds,
// the rules' views of that, its renders and its bytes in every format, or
// the format's refusal.
type confRef struct {
	exp                *expdb.Experiment
	cct, flat, callers *oracle.View
	renders            string
	bytes              map[string][]byte
	refused            map[string]string
}

func newConfRef(t *testing.T, e *expdb.Experiment) *confRef {
	ref := &confRef{exp: e, cct: oracle.CCT(e.Tree), flat: oracle.Flat(e.Tree), callers: oracle.Callers(e.Tree), bytes: map[string][]byte{}, refused: map[string]string{}}
	snap := engine.NewSnapshot(e)
	ref.renders = renderViews(t, snap)
	snap.Close()
	for _, f := range confFormats {
		b, err := tryEncode(f.write, e)
		if err != nil {
			ref.refused[f.name] = err.Error()
		}
		ref.bytes[f.name] = b
	}
	return ref
}

// holding returns what a route that holds h keeps of e.
func holding(h string, e *expdb.Experiment) *expdb.Experiment {
	switch h {
	case "noprov":
		c := *e
		c.Provenance = nil
		return &c
	case "raw":
		reg := metric.NewRegistry()
		var raw []int
		for _, d := range e.Tree.Reg.Columns() {
			if d.Kind == metric.Raw {
				if _, err := reg.AddRaw(d.Name, d.Unit, d.Period); err != nil {
					panic(err)
				}
				raw = append(raw, d.ID)
			}
		}
		tree := core.NewTree(e.Tree.Program, reg)
		var copyScopes func(from, to *core.Node)
		copyScopes = func(from, to *core.Node) {
			for _, c := range from.Children {
				n := to.Child(c.Key, true)
				n.NoSource, n.Mod, n.CallFile, n.CallLine = c.NoSource, c.Mod, c.CallFile, c.CallLine
				for id, src := range raw {
					n.Base.Add(id, c.Base.Get(src))
				}
				copyScopes(c, n)
			}
		}
		copyScopes(e.Tree.Root, tree.Root)
		tree.ComputeMetrics()
		return &expdb.Experiment{Program: e.Program, NRanks: e.NRanks, Tree: tree}
	}
	return e
}

// checkCell runs every check of the matrix on a route's snapshot of a
// source of which the route holds ref.
func checkCell(t *testing.T, ref *confRef, snap *engine.Snapshot) {
	got, want := snap.Experiment(), ref.exp
	tree := got.Tree
	if got.Program != want.Program || got.NRanks != want.NRanks {
		t.Errorf("program %q at %d ranks, want %q at %d", got.Program, got.NRanks, want.Program, want.NRanks)
	}
	if !reflect.DeepEqual(got.Provenance, want.Provenance) {
		t.Errorf("provenance %+v, want %+v", got.Provenance, want.Provenance)
	}
	if len(got.Notes) != 0 {
		t.Errorf("an intact database opened with notes %q", got.Notes)
	}
	if got, want := tree.Reg.Columns(), want.Tree.Reg.Columns(); len(got) != len(want) {
		t.Errorf("%d columns, want %d", len(got), len(want))
	} else {
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Kind != w.Kind || g.Unit != w.Unit || g.Period != w.Period || g.Formula != w.Formula || g.Op != w.Op || g.Source != w.Source {
				t.Errorf("column %d is %+v, want %+v", i, *g, *w)
			}
		}
	}
	if err := ref.cct.Check([]*core.Node{tree.Root}, 0); err != nil {
		t.Errorf("calling context view: %v", err)
	}
	if err := ref.flat.Check(core.BuildFlatView(tree).Roots, 0); err != nil {
		t.Errorf("flat view: %v", err)
	}
	callers := core.BuildCallersView(tree)
	if err := callers.ExpandAll(); err != nil {
		t.Fatal(err)
	}
	if err := ref.callers.Check(callers.Roots, 0); err != nil {
		t.Errorf("callers view: %v", err)
	}
	checkHotPathEquiv(t, tree)
	checkSortEquiv(t, tree)
	walked := -1
	core.Walk(tree.Root, func(*core.Node) bool { walked++; return true })
	if n := tree.NumNodes(); n != walked {
		t.Errorf("NumNodes %d, a walk counts %d scopes", n, walked)
	}
	if r := renderViews(t, snap); r != ref.renders {
		t.Errorf("renders differ from the in-memory route's:\n%s", oracle.FirstDiff(ref.renders, r))
	}
	// Read by this route and written as F, the database is what F wrote
	// directly, or what F refused.
	for _, f := range confFormats {
		b, err := tryEncode(f.write, got)
		if refused := ref.refused[f.name]; err != nil || refused != "" {
			if err == nil || err.Error() != refused {
				t.Errorf("re-encoded as %s: error %v, where writing directly gave %q", f.name, err, refused)
			}
		} else if want := ref.bytes[f.name]; !bytes.Equal(b, want) {
			t.Errorf("re-encoded as %s: %d bytes that differ from byte %d on from the %d %s wrote directly", f.name, len(b), firstByte(b, want), len(want), f.name)
		}
	}
}

// firstByte is the offset of the first byte at which a and b differ.
func firstByte(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// checkScaled checks that scaling every Base cell of e by 2 scales every
// raw cell of both planes, Equations 1 and 2, by exactly 2, and that the
// recomputation leaves the stored summary and computed cells as they were
// read. Derived cells are evaluated where they are read, from the cells
// they name, and every cell checks them against the oracle.
func checkScaled(t *testing.T, e *expdb.Experiment) {
	scaled, err := expdb.Read(bytes.NewReader(encode(t, (*expdb.Experiment).WriteBinaryV3, e)))
	if err != nil {
		t.Fatal(err)
	}
	factor := map[int]float64{}
	for _, d := range e.Tree.Reg.Columns() {
		switch d.Kind {
		case metric.Raw:
			factor[d.ID] = 2
		case metric.Summary, metric.Computed:
			factor[d.ID] = 1
		}
	}
	core.Walk(scaled.Tree.Root, func(n *core.Node) bool {
		for id, k := range factor {
			if k == 2 {
				n.Base.Add(id, n.Base.Get(id))
			}
		}
		return true
	})
	scaled.Tree.ComputeMetrics()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var walk func(a, b *core.Node)
	walk = func(a, b *core.Node) {
		for id, k := range factor {
			if ai, ae, bi, be := a.Incl.Get(id), a.Excl.Get(id), b.Incl.Get(id), b.Excl.Get(id); !same(k*ai, bi) || !same(k*ae, be) {
				t.Fatalf("%s: column %d is (%v, %v), (%v, %v) once raw cells are scaled by 2", a.Label(), id, ai, ae, bi, be)
			}
		}
		for i, c := range a.Children {
			walk(c, b.Children[i])
		}
	}
	walk(e.Tree.Root, scaled.Tree.Root)
}

// genSource presents a bench/gen tree to source.BuildTree as the
// benchmark's own databases are built.
type genSource struct{ c gen.CCT }

func (s genSource) Program() string           { return "synth" }
func (s genSource) Identity() source.Identity { return source.Identity{} }

func (s genSource) Metrics() []source.Metric {
	out := make([]source.Metric, s.c.Cols)
	for i := range out {
		out[i] = source.Metric{Name: fmt.Sprintf("M%d", i), Unit: "events", Period: 1}
	}
	return out
}

func (s genSource) Samples(emit func(path []source.Scope, values []float64) error) error {
	kinds := map[gen.ScopeKind]core.Kind{gen.Frame: core.KindFrame, gen.LoopScope: core.KindLoop, gen.StmtScope: core.KindStmt}
	var path []source.Scope
	return s.c.Emit(func(scopes []gen.Scope, values []float64) error {
		path = path[:0]
		for _, g := range scopes {
			sc := source.Scope{Key: core.Key{Kind: kinds[g.Kind], Name: core.Sym(g.Name), File: core.Sym(g.File), Line: g.Line, ID: g.ID}}
			if g.Kind == gen.Frame {
				sc.Mod, sc.CallLine, sc.CallFile = core.Sym("synth.exe"), g.CallLine, core.Sym("caller.c")
			}
			path = append(path, sc)
		}
		return emit(path, values)
	})
}

// A confSource is a row of the matrix: a tree source. A fractional one has
// costs that are not whole numbers, which pprof export refuses.
type confSource struct {
	name       string
	exp        func(t *testing.T) *expdb.Experiment
	fractional bool
}

func confSources() []confSource {
	shaped := func(seed int64, size int, sh oracle.CCTShape) func(*testing.T) *expdb.Experiment {
		return func(*testing.T) *expdb.Experiment {
			tree, _ := oracle.RandomCCTShape(seed, size, sh)
			return expdb.New(tree)
		}
	}
	generated := func(c gen.CCT) func(*testing.T) *expdb.Experiment {
		return func(t *testing.T) *expdb.Experiment {
			tree, err := source.BuildTree(genSource{c})
			if err != nil {
				t.Fatal(err)
			}
			return expdb.New(tree)
		}
	}
	rows := []confSource{
		{"fig2", func(*testing.T) *expdb.Experiment { return expdb.New(core.Fig1Tree()) }, false},
		{"shape/wide", shaped(1, 400, oracle.CCTShape{Cols: 4}), false},
		{"shape/everything", shaped(2, 300, oracle.CCTShape{Entries: 2, Cols: 4, ZeroCol: true, Negative: true}), true},
		{"shape/recursion5", shaped(5, 600, oracle.CCTShape{Cols: 1, RecDepth: 5}), false},
		{"recursive", func(*testing.T) *expdb.Experiment { return expdb.New(oracle.RandomRecursiveTree(2000, 3)) }, false},
		{"gen", generated(gen.CCT{Seed: 1, Scopes: 2000, Cols: 3}), false},
		{"gen/perturbed", generated(gen.CCT{Seed: 1, Scopes: 2000, Cols: 3, P: &gen.Perturb{Seed: 2, Drop: 0.05, Add: 0.05, Scale: 0.4}}), true},
	}
	for _, name := range workloads.Names() {
		for _, ranks := range []int{1, 7, 64} {
			rows = append(rows, confSource{fmt.Sprintf("%s/ranks=%d", name, ranks), func(t *testing.T) *expdb.Experiment {
				return confWorkload(t, name, ranks)
			}, false})
		}
	}
	return append(rows, confSource{"union", func(t *testing.T) *expdb.Experiment {
		res, err := diff.Diff(diff.Config{}, diff.Input{Label: "A", Exp: equivExperiment(t, "pflotran", 1)},
			diff.Input{Label: "B", Exp: equivExperiment(t, "pflotran", 7)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Exp
	}, true})
}

// equivExperiment merges a workload at a rank count into an experiment with
// summary columns (multi-rank only — they live in the v2 overrides section)
// and a derived column, mirroring what hpcprof -summaries produces.
func equivExperiment(t *testing.T, name string, ranks int) *expdb.Experiment {
	t.Helper()
	doc, profs := mustMPIProfiles(t, name, ranks)
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	if ranks > 1 {
		cyc := res.Tree.Reg.ByName("CYCLES")
		if cyc == nil {
			t.Fatal("no CYCLES column")
		}
		if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := res.Tree.Reg.AddDerived("work4x", "$0 * 4 - $0"); err != nil {
		t.Fatal(err)
	}
	return expdb.FromMerge(res)
}

// confWorkload is equivExperiment with a quarantine record, as hpcprof
// -keep-going writes one.
func confWorkload(t *testing.T, name string, ranks int) *expdb.Experiment {
	e := equivExperiment(t, name, ranks)
	e.Provenance = &ingest.Report{Attempted: ranks + 1, Merged: ranks, Bad: []ingest.BadRank{
		{Path: "lost.cpprof", Rank: ranks, Offset: 5, Class: ingest.ClassTruncated, Message: "unexpected EOF"},
	}}
	return e
}

// mergedBytes merges profs at GOMAXPROCS procs, adds mean, min, max and
// standard deviation summaries of every raw column and writes the result
// with write.
func mergedBytes(t *testing.T, doc *structfile.Doc, profs []*profile.Profile, procs int, write func(*expdb.Experiment, io.Writer) error) []byte {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	res, err := merge.Profiles(doc, profs)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Tree.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
			t.Fatal(err)
		}
	}
	return encode(t, write, expdb.FromMerge(res))
}

// TestConformance crosses the tree sources with the routes, and checks in
// every cell, against what the route holds of the source:
//   - the Calling Context (Equations 1 and 2), Flat and Callers Views
//     against oracle.CCT, oracle.Flat and oracle.Callers, and every hot
//     path from the top three levels against oracle.HotPath (Equation 3);
//   - sibling sort orders against oracle.Sort, and NumNodes against a
//     walk;
//   - the registry, column by column, program, rank count and provenance,
//     and that an intact database opens with no notes;
//   - that the three views render byte for byte like the in-memory route;
//   - that the database, written as any format (pprof export included),
//     gives the bytes that format wrote directly;
//   - on the memory and open/v3 routes, the session surface's three
//     relations over generated scripts (checkScripts).
//
// Beside the cells, the relations: scaling every Base cell by 2 scales
// every raw cell by exactly 2, and a merge gives the same bytes at any
// GOMAXPROCS and in any rank order.
func TestConformance(t *testing.T) {
	t.Run("merge", func(t *testing.T) {
		for _, name := range workloads.Names() {
			doc, profs := mustMPIProfiles(t, name, 64)
			reversed := slices.Clone(profs)
			slices.Reverse(reversed)
			shuffled := slices.Clone(profs)
			rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, f := range confFormats[2:4] { // v2 and v3
				want := mergedBytes(t, doc, profs, 1, f.write)
				for _, c := range []struct {
					name  string
					profs []*profile.Profile
					procs int
				}{{"GOMAXPROCS=2", profs, 2}, {"GOMAXPROCS=8", profs, 8}, {"ranks reversed", reversed, 1}, {"ranks shuffled", shuffled, 1}} {
					if got := mergedBytes(t, doc, c.profs, c.procs, f.write); !bytes.Equal(got, want) {
						t.Errorf("%s at 64 ranks, %s: the %s database differs from byte %d on from the one merged at GOMAXPROCS=1 in rank order", name, c.name, f.name, firstByte(got, want))
					}
				}
			}
		}
	})
	for _, src := range confSources() {
		t.Run(src.name, func(t *testing.T) {
			e := src.exp(t)
			conform(t, e, "", src.fractional)
			t.Run("scaled", func(t *testing.T) { checkScaled(t, e) })
		})
	}
}

// conform checks e through every route whose name starts with prefix. When
// e is fractional, the pprof route checks that export refuses it, naming
// the first scope and column, in preorder, whose cost is no whole number.
func conform(t *testing.T, e *expdb.Experiment, prefix string, fractional bool) {
	refs := map[string]*confRef{}
	for _, r := range confRoutes() {
		if !strings.HasPrefix(r.name, prefix) {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			if r.name == "pprof" && fractional {
				scope, column := firstFraction(e)
				if scope == "" {
					t.Fatal("fixture: a fractional source with whole-number costs only")
				}
				_, err := tryEncode(pprofio.Export, e)
				if err == nil || !strings.Contains(err.Error(), scope+": column "+strconv.Quote(column)) {
					t.Fatalf("export: %v, want a refusal naming %s and column %q", err, scope, column)
				}
				return
			}
			ref := refs[r.holds]
			if ref == nil {
				ref = newConfRef(t, holding(r.holds, e))
				refs[r.holds] = ref
			}
			snap := r.open(t, e)
			defer snap.Close()
			checkCell(t, ref, snap)
			if prefix == "" && (r.name == "memory" || r.name == "open/v3") {
				t.Run("scripts", func(t *testing.T) { checkScripts(t, e, func() *engine.Snapshot { return r.open(t, e) }) })
			}
		})
	}
}

// checkScripts runs the three relations of the session surface on scripts
// oracle.Generate draws over e, each session's snapshot a fresh open of e
// and the database `diff self` names one more:
//   - every step of a script on a session of its own lists what the model
//     does (oracle.Check);
//   - the script sent to hpcserver's /v1/exec prints what Session.Do
//     printed;
//   - interleaved at random with the other scripts, each on its own
//     session over one shared snapshot, it prints what it printed alone,
//     and still lists what the model does (oracle.Shared).
func checkScripts(t *testing.T, e *expdb.Experiment, open func() *engine.Snapshot) {
	n := 4
	if testing.Short() {
		n = 2
	}
	fresh := func() *engine.Snapshot {
		snap := open()
		t.Cleanup(func() { snap.Close() })
		return snap
	}
	other, model := fresh(), oracle.NewModel(e, "self", func(shown *expdb.Experiment) (*expdb.Experiment, error) {
		res, err := diff.Diff(diff.Config{}, diff.Input{Label: "A", Exp: shown}, diff.Input{Label: "B", Exp: e})
		if err != nil {
			return nil, err
		}
		return res.Exp, nil
	})
	session := func(snap *engine.Snapshot) oracle.Surface {
		s := engine.NewSession(snap)
		t.Cleanup(s.Close)
		s.SetCatalog(engine.SnapshotCatalog{"self": other})
		return surface(s)
	}
	scripts, alone := make([][]string, n), make([]string, n)
	for i := range scripts {
		scripts[i] = oracle.Generate(int64(i+1), 40, model.Fresh())
		var err error
		if alone[i], err = oracle.Check(model.Fresh(), scripts[i], session(fresh())); err != nil {
			t.Fatalf("seed %d: %v", i+1, err)
		}
	}

	srv := server.NewWithConfig(fresh(), server.Config{})
	defer srv.Close()
	if err := srv.Catalog().Pin("self", other); err != nil {
		t.Fatal(err)
	}
	for i, script := range scripts {
		if got := oracle.Replay(script, httpSession(t, srv.Handler())); got != alone[i] {
			t.Errorf("seed %d: script %q over /v1/exec prints what Session.Do does not: %s", i+1, script, oracle.FirstDiff(got, alone[i]))
		}
	}

	shared, surfaces := fresh(), make([]oracle.Surface, n)
	for i := range surfaces {
		surfaces[i] = session(shared)
	}
	if err := oracle.Shared(1, model, scripts, alone, surfaces); err != nil {
		t.Error(err)
	}
}

// surface is an engine session as oracle drives it.
func surface(s *engine.Session) oracle.Surface {
	return oracle.Surface{
		Do: func(line string) (string, string) {
			resp := s.Do(engine.Request{Line: line})
			return resp.Output, resp.Err
		},
		Rows: func() []oracle.Shown { return oracle.Listing(s.VisibleRows(), s.Registry().Len(), s.Value) },
	}
}

// httpSession opens a session on hpcserver's handler, in process, and
// returns its /v1/exec as a Do.
func httpSession(t *testing.T, h http.Handler) func(line string) (string, string) {
	post := func(path string, req, resp any) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
			t.Fatal(err)
		}
	}
	var created struct{ Token string }
	post("/v1/sessions", struct{}{}, &created)
	return func(line string) (string, string) {
		var resp struct{ Output, Error string }
		post("/v1/sessions/"+created.Token+"/exec", map[string]string{"line": line}, &resp)
		return resp.Output, resp.Error
	}
}

// firstFraction returns the label and column name of the first raw Base
// cell of e, in preorder, that is not a whole number ("" when none is).
func firstFraction(e *expdb.Experiment) (scope, column string) {
	core.Walk(e.Tree.Root, func(n *core.Node) bool {
		for _, d := range e.Tree.Reg.Columns() {
			if v := n.Base.Get(d.ID); scope == "" && d.Kind == metric.Raw && v != math.Trunc(v) {
				scope, column = n.Label(), d.Name
			}
		}
		return scope == ""
	})
	return scope, column
}

// Two older tests keep their names as slices of the matrix, each running
// cells TestConformance runs too; they retire with the rest of the
// per-format tests (ROADMAP item 1).

// TestV3OpenPathEquivalence: whichever format engine.Open finds — v3
// mapped, XML, v1 or v2 decoded whole — a workload database opens to what
// was written.
func TestV3OpenPathEquivalence(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, ranks := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(t *testing.T) {
				conform(t, confWorkload(t, name, ranks), "open/", false)
			})
		}
	}
}

// TestColumnarQueryEquivalence: a workload database read from v1 and v2
// presents what the rules give, sorted and hot-pathed as the references do.
func TestColumnarQueryEquivalence(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, ranks := range []int{1, 7, 64} {
			e := equivExperiment(t, name, ranks)
			for _, f := range []string{"v2", "v1"} {
				t.Run(fmt.Sprintf("%s/ranks=%d/%s", name, ranks, f), func(t *testing.T) { conform(t, e, "read/"+f, false) })
			}
		}
	}
}

// checkSortEquiv sorts the children of every scope of two or more by six
// orders and checks each against oracle.Sort, the session model's order.
func checkSortEquiv(t *testing.T, tr *core.Tree) {
	t.Helper()
	last := tr.Reg.Len() - 1
	specs := []core.SortSpec{
		{}, // hpcviewer's default: column 0, inclusive, descending
		{Ascending: true},
		{Exclusive: true},
		{ByLabel: true},
		{MetricID: last},
		{MetricID: last, Exclusive: true, Ascending: true},
	}
	core.Walk(tr.Root, func(n *core.Node) bool {
		if len(n.Children) < 2 {
			return true
		}
		for _, spec := range specs {
			got := append([]*core.Node(nil), n.Children...)
			want := append([]*core.Node(nil), n.Children...)
			core.SortScopes(got, spec)
			oracle.Sort(want, spec, func(n *core.Node) float64 {
				if spec.Exclusive {
					return n.Excl.Get(spec.MetricID)
				}
				return n.Incl.Get(spec.MetricID)
			}, (*core.Node).Label)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: spec %+v: position %d is %q, reference has %q",
						n.Label(), spec, i, got[i].Label(), want[i].Label())
				}
			}
		}
		return true
	})
}

// checkHotPathEquiv checks core.HotPath against oracle.HotPath from the
// top three levels of the tree, on the first and last columns, at four
// thresholds.
func checkHotPathEquiv(t *testing.T, tr *core.Tree) {
	t.Helper()
	starts := []*core.Node{tr.Root}
	for _, c := range tr.Root.Children {
		starts = append(starts, c)
		starts = append(starts, c.Children...)
	}
	cols := []int{0}
	if last := tr.Reg.Len() - 1; last > 0 {
		cols = append(cols, last)
	}
	for _, start := range starts {
		for _, col := range cols {
			for _, th := range []float64{0, 0.3, 0.5, 0.9} {
				got := core.HotPath(start, col, th)
				want := oracle.HotPath(start, col, th)
				if len(got) != len(want) {
					t.Fatalf("HotPath(%s, col %d, t=%v): %d scopes, oracle %d",
						start.Label(), col, th, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("HotPath(%s, col %d, t=%v): step %d is %q, oracle %q",
							start.Label(), col, th, i, got[i].Label(), want[i].Label())
					}
				}
			}
		}
	}
}

// renderViews drives one fresh session per view over the snapshot and
// returns the concatenated renders: fully expanded Calling Context,
// fully expanded Callers, once-flattened Flat, plus a hot path and an
// exclusive sort on the first column for coverage of the order-sensitive
// paths.
func renderViews(t *testing.T, snap *engine.Snapshot) string {
	t.Helper()
	m := snap.Tree().Reg.ByID(0).Name
	scripts := [][]string{
		{"expandall", "hot " + m},
		{"view callers", "expandall", "sort " + m},
		{"view flat", "flatten", "sort " + m + ":excl"},
	}
	var out strings.Builder
	for _, script := range scripts {
		s := engine.NewSession(snap)
		for _, line := range script {
			if resp := s.Do(engine.Request{Line: line}); resp.Err != "" {
				s.Close()
				t.Fatalf("%q: %s", line, resp.Err)
			}
		}
		fmt.Fprintf(&out, "=== %s ===\n", script[0])
		if err := s.Render(&out, render.Options{}); err != nil {
			s.Close()
			t.Fatal(err)
		}
		s.Close()
	}
	return out.String()
}
