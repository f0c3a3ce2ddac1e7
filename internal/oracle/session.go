package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
	"repro/internal/render"
)

// The interactive surface, stated once: a model of a session (the command
// grammar internal/engine's Exec reads, as hpcviewer -interactive and
// hpcserver's /v1/exec drive it) and a seeded generator of command scripts
// over that grammar.
//
// The model lists rows from the rules' views of the tree (CCT, Callers and
// Flat, complete) and the script's own record of what it opened, sorted
// by Sort and followed by HotPath. It knows nothing of stores, row ids,
// lazy construction or sharing: a Callers View root shows a + until the
// script opens it, whatever any other session did, and a session formula
// is evaluated with Expr.Eval over the row's own cells.

// Sort is the reference sibling order: a stable sort, descending by value
// (ascending under Ascending), ties broken by label, or by label alone
// under ByLabel. A NaN fails both comparisons, so it ties and keeps its
// place.
func Sort[T any](xs []T, spec core.SortSpec, value func(T) float64, label func(T) string) {
	sort.SliceStable(xs, func(i, j int) bool {
		if spec.ByLabel {
			return label(xs[i]) < label(xs[j])
		}
		a, b := value(xs[i]), value(xs[j])
		if a != b {
			if spec.Ascending {
				return a < b
			}
			return a > b
		}
		return label(xs[i]) < label(xs[j])
	})
}

// Shown is one row a session lists.
type Shown struct {
	// Path is the labels from the top of the list down to the row.
	Path  string
	Depth int
	// Plus says the row is listed with a +: there are rows below it that
	// the list does not show.
	Plus bool
	// Cut is, on the last row of a sibling list that `top` cut, how many
	// rows the cut hid.
	Cut int
	// Cells are the row's inclusive cells then its exclusive ones, by the
	// session's columns.
	Cells []float64
}

const (
	viewCC = iota
	viewCallers
	viewFlat
)

var viewNames = [...]string{"cc", "callers", "flat"}

// Model is a session over a tree as the rules give it.
type Model struct {
	*world

	tree, home *core.Tree // home: the tree shown before a diff, nil outside one
	reg        *metric.Registry
	ext        map[*Row][]float64 // rows' cells, session formulas' included, inclusive then exclusive
	view       int
	open       map[*Row]bool // the rows the script opened in the view shown
	opened     map[*Row]bool // every row the script opened since a diff, in any view
	sort       core.SortSpec
	zoom       []*Row
	flatten    int
	selected   *Row
	threshold  float64
	top, depth int

	rows  []*Row // the rows last listed, and what they show
	shown []Shown
}

// world is what the models Fresh makes share: the database they start on,
// how `diff` unites the one shown with the catalog's, that one's name (""
// when none: Next writes no `diff`), and the unions and views built so far.
type world struct {
	start   *expdb.Experiment
	diff    func(shown *expdb.Experiment) (*expdb.Experiment, error)
	catalog string
	exps    map[*core.Tree]*expdb.Experiment
	unions  map[*core.Tree]*core.Tree
	views   map[*core.Tree]*[3]*View
}

// NewModel returns the model of a fresh session over e whose catalog holds
// one database under name, or none when diff is nil. `diff NAME` shows
// diff(shown) of the database shown: the caller unites the two as
// engine.Session.Compare does, shown labelled A and the catalog's B.
func NewModel(e *expdb.Experiment, name string, diff func(shown *expdb.Experiment) (*expdb.Experiment, error)) *Model {
	if diff == nil {
		name = ""
	}
	w := &world{start: e, diff: diff, catalog: name, exps: map[*core.Tree]*expdb.Experiment{e.Tree: e},
		unions: map[*core.Tree]*core.Tree{}, views: map[*core.Tree]*[3]*View{}}
	return (&Model{world: w}).Fresh()
}

// Fresh returns the model of another fresh session over m's database. It
// shares the unions and views m has built.
func (m *Model) Fresh() *Model {
	f := &Model{world: m.world, threshold: core.DefaultHotPathThreshold}
	f.rebase(m.start.Tree)
	return f
}

// union is the tree `diff NAME` shows over the tree shown.
func (m *Model) union(name string) (*core.Tree, error) {
	if name != m.catalog || m.diff == nil {
		return nil, fmt.Errorf("no database %q", name)
	}
	if u := m.unions[m.tree]; u != nil {
		return u, nil
	}
	u, err := m.diff(m.exps[m.tree])
	if err != nil {
		return nil, err
	}
	m.exps[u.Tree], m.unions[m.tree] = u, u.Tree
	return u.Tree, nil
}

// rebase shows t, resetting what a session resets when it enters or
// leaves a diff.
func (m *Model) rebase(t *core.Tree) {
	m.tree, m.reg, m.ext = t, t.Reg.Clone(), map[*Row][]float64{}
	m.view, m.open, m.opened = viewCC, map[*Row]bool{}, map[*Row]bool{}
	m.sort, m.zoom, m.flatten, m.selected = core.SortSpec{}, nil, 0, nil
}

// of returns view k of the tree shown, built on first use.
func (m *Model) of(k int) *View {
	vs := m.views[m.tree]
	if vs == nil {
		vs = &[3]*View{}
		m.views[m.tree] = vs
	}
	if vs[k] == nil {
		vs[k] = [...]func(*core.Tree) *View{CCT, Callers, Flat}[k](m.tree)
	}
	return vs[k]
}

// cell reads column id of r, a session formula's included.
func (m *Model) cell(r *Row, id int, inclusive bool) float64 {
	x := m.ext[r]
	if x == nil {
		x = m.derive(r)
		m.ext[r] = x
	}
	if inclusive {
		return x[id]
	}
	return x[m.reg.Len()+id]
}

// derive lists r's cells, inclusive then exclusive, each followed by the
// session's formulas evaluated over them in registry order, so a formula
// reads the ones before it.
func (m *Model) derive(r *Row) []float64 {
	var x []float64
	for _, cells := range [][]float64{r.Incl, r.Excl} {
		row := slices.Clone(cells)
		for id := len(cells); id < m.reg.Len(); id++ {
			e, err := m.reg.ByID(id).Expr()
			if err != nil {
				panic(err)
			}
			v, err := e.Eval(metric.EnvFunc(func(i int) float64 { return row[i] }))
			if err != nil {
				panic(err)
			}
			if v == 0 {
				v = 0 // a cell is never -0
			}
			row = append(row, v)
		}
		x = append(x, row...)
	}
	return x
}

func label(r *Row) string { return (&core.Node{Key: r.Key}).Label() }

// roots are the rows at the top of the list.
func (m *Model) roots() []*Row {
	switch m.view {
	case viewCC:
		if len(m.zoom) > 0 {
			return m.zoom[len(m.zoom)-1].Children
		}
		return m.of(viewCC).Roots[0].Children
	case viewCallers:
		return m.of(viewCallers).Roots
	}
	rows := m.of(viewFlat).Roots
	for range m.flatten {
		var next []*Row
		for _, r := range rows {
			if len(r.Children) == 0 {
				next = append(next, r)
			} else {
				next = append(next, r.Children...)
			}
		}
		rows = next
	}
	return rows
}

// Rows lists the rows the session shows now.
func (m *Model) Rows() []Shown {
	m.rows, m.shown = m.rows[:0], m.shown[:0]
	m.list(m.roots(), 0, "")
	return m.shown
}

func (m *Model) list(rows []*Row, depth int, at string) {
	rows = slices.Clone(rows)
	Sort(rows, m.sort, func(r *Row) float64 { return m.cell(r, m.sort.MetricID, !m.sort.Exclusive) }, label)
	cut := 0
	if m.top > 0 && len(rows) > m.top {
		rows, cut = rows[:m.top], len(rows)-m.top
	}
	for i, r := range rows {
		unread := m.view == viewCallers && depth == 0 && !m.opened[r]
		open := m.open[r] && !unread && (m.depth == 0 || depth+1 < m.depth)
		s := Shown{Path: at + "/" + label(r), Depth: depth, Plus: unread || !open && len(r.Children) > 0}
		if i == len(rows)-1 {
			s.Cut = cut
		}
		for _, inclusive := range []bool{true, false} {
			for id := range m.reg.Len() {
				s.Cells = append(s.Cells, m.cell(r, id, inclusive))
			}
		}
		m.rows, m.shown = append(m.rows, r), append(m.shown, s)
		if open {
			m.list(r.Children, depth+1, s.Path)
		}
	}
}

// openTree opens r and every row below it.
func (m *Model) openTree(r *Row) {
	m.open[r] = true
	for _, c := range r.Children {
		m.openTree(c)
	}
}

// Exec runs one command line and returns the message it prints before any
// rows ("" when none: the message of `ls`, `diff` and most commands is
// not modelled), or the error the session reports.
func (m *Model) Exec(line string) (string, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return "", nil
	}
	arg := ""
	if len(f) > 1 {
		arg = f[1]
	}
	row := func() (*Row, error) {
		i, err := strconv.Atoi(arg)
		if err != nil {
			return nil, err
		}
		if m.Rows(); i < 0 || i >= len(m.rows) {
			return nil, fmt.Errorf("row %d out of range", i)
		}
		return m.rows[i], nil
	}
	column := func(spec string) (core.SortSpec, error) {
		name, excl := strings.CutSuffix(spec, ":excl")
		d := m.reg.ByName(name)
		if d == nil {
			return core.SortSpec{}, fmt.Errorf("unknown metric %q", name)
		}
		return core.SortSpec{MetricID: d.ID, Exclusive: excl}, nil
	}
	switch f[0] {
	case "ls", "metrics":
	case "view":
		k := slices.Index(viewNames[:], arg)
		if k < 0 {
			return "", fmt.Errorf("unknown view %q", arg)
		}
		if k != m.view {
			m.view, m.open, m.zoom, m.selected = k, map[*Row]bool{}, nil, nil
		}
	case "expand", "collapse", "select", "zoom":
		r, err := row()
		if err != nil {
			return "", err
		}
		switch f[0] {
		case "expand":
			m.open[r], m.opened[r] = true, true
		case "collapse":
			delete(m.open, r)
		case "select":
			m.selected = r
			return "selected " + label(r), nil
		case "zoom":
			if m.view != viewCC {
				return "", errors.New("zoom applies to the calling context view")
			}
			m.zoom = append(m.zoom, r)
		}
	case "expandall":
		var r *Row
		if len(f) > 1 {
			var err error
			if r, err = row(); err != nil {
				return "", err
			}
		}
		if m.view == viewCallers {
			for _, root := range m.of(viewCallers).Roots {
				m.opened[root] = true
			}
		}
		if r != nil {
			m.openTree(r)
			break
		}
		shown := m.Rows()
		for i, r := range slices.Clone(m.rows) {
			if shown[i].Depth == 0 {
				m.openTree(r)
			}
		}
	case "hot":
		spec, err := column(arg)
		if err != nil {
			return "", err
		}
		return m.hot(spec.MetricID), nil
	case "sort":
		if arg == "name" {
			m.sort = core.SortSpec{ByLabel: true}
			break
		}
		spec, err := column(arg)
		if err != nil {
			return "", err
		}
		m.sort = spec
	case "cols":
		if arg != "all" {
			for _, c := range strings.Split(arg, ",") {
				if _, err := column(c); err != nil {
					return "", err
				}
			}
		}
	case "stats":
		_, err := column(arg)
		return "", err
	case "threshold":
		t, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return "", err
		}
		if t <= 0 || t > 1 {
			t = core.DefaultHotPathThreshold
		}
		m.threshold = t
	case "out":
		if len(m.zoom) > 0 {
			m.zoom = m.zoom[:len(m.zoom)-1]
		}
	case "flatten":
		if m.view != viewFlat {
			return "", errors.New("flattening applies to the flat view")
		}
		m.flatten++
	case "unflatten":
		m.flatten = max(m.flatten-1, 0)
	case "derived":
		name, formula, ok := strings.Cut(strings.Join(f[1:], " "), "=")
		if !ok {
			return "", errors.New("derived takes NAME=FORMULA")
		}
		if _, err := m.reg.AddDerived(strings.TrimSpace(name), formula); err != nil {
			return "", err
		}
		clear(m.ext)
		return "added " + strings.TrimSpace(name), nil
	case "diff":
		t, err := m.union(arg)
		if err != nil {
			return "", err
		}
		if m.home == nil {
			m.home = m.tree
		}
		m.rebase(t)
	case "back":
		if m.home == nil {
			return "", errors.New("not presenting a diff")
		}
		home := m.home
		m.home = nil
		m.rebase(home)
	case "top", "depth":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return "", fmt.Errorf("bad count %q", arg)
		}
		if f[0] == "top" {
			m.top = n
		} else {
			m.depth = n
		}
	default:
		return "", fmt.Errorf("unknown command %q", f[0])
	}
	return "", nil
}

// hot follows Equation 3 on column id from the selection, or else from the
// top of the view (the hottest top row outside the Calling Context View),
// opens every row on the path and selects its end.
func (m *Model) hot(id int) string {
	start := m.selected
	if start == nil {
		switch roots := m.roots(); {
		case m.view == viewCC && len(m.zoom) > 0:
			start = m.zoom[len(m.zoom)-1]
		case m.view == viewCC:
			start = m.of(viewCC).Roots[0]
		case len(roots) == 0:
			return "no hot path"
		default:
			start = roots[0]
			for _, r := range roots[1:] {
				if m.cell(r, id, true) > m.cell(start, id, true) {
					start = r
				}
			}
		}
	}
	m.opened[start] = true
	path := hotPath(start, func(r *Row) []*Row { return r.Children }, func(r *Row) float64 { return m.cell(r, id, true) }, m.threshold)
	for _, r := range path {
		m.open[r] = true
	}
	m.selected = path[len(path)-1]
	return "hot path ends at " + label(m.selected)
}

// Step runs line on the model and compares what a session printed for it
// (out, and whether it failed) and then listed (got) with what the model
// gives. The error names the first difference: the message, or the path
// of the first row that differs.
func (m *Model) Step(line, out string, failed bool, got []Shown) error {
	msg, err := m.Exec(line)
	if (err != nil) != failed {
		return fmt.Errorf("%q: the session failed: %v, the model: %v", line, failed, err)
	}
	if first, _, _ := strings.Cut(out, "\n"); msg != "" && first != msg {
		return fmt.Errorf("%q: the session prints %q, the model %q", line, first, msg)
	}
	want := m.Rows()
	for i := range max(len(got), len(want)) {
		switch {
		case i == len(got):
			return fmt.Errorf("after %q: the session lists %d rows, the model also %s", line, len(got), want[i].Path)
		case i == len(want):
			return fmt.Errorf("after %q: the model lists %d rows, the session also %s", line, len(want), got[i].Path)
		}
		g, w := got[i], want[i]
		same := slices.EqualFunc(g.Cells, w.Cells, func(a, b float64) bool { return a == b || a != a && b != b })
		if g.Path != w.Path || g.Depth != w.Depth || g.Plus != w.Plus || g.Cut != w.Cut || !same {
			return fmt.Errorf("after %q: row %d is %+v, the model's %+v", line, i, g, w)
		}
	}
	return nil
}

// Next draws the next command of a script from rng, given what the model
// shows now: a row number is one of the rows listed, or one past the last
// (which fails); a column is any of the session's; a formula reads any
// column, the script's own formulas included, and its name is x, y or z,
// so a script may define a name twice (which fails), and scripts of other
// seeds define the same names by other formulas.
func (m *Model) Next(rng *rand.Rand) string {
	n := len(m.Rows())
	row := func() string { return strconv.Itoa(rng.Intn(n + 1)) }
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	var cols []string
	for _, d := range m.reg.Columns() {
		if !strings.ContainsAny(d.Name, " \t") {
			cols = append(cols, d.Name)
		}
	}
	col := func() string {
		if rng.Intn(3) == 0 {
			return cols[0]
		}
		return cols[rng.Intn(len(cols))]
	}
	ref := func() string { return "$" + strconv.Itoa(rng.Intn(m.reg.Len())) }
	for {
		switch k := rng.Intn(100); {
		case k < 5:
			return "ls"
		case k < 15:
			return "view " + pick(viewNames[:]...)
		case k < 29:
			return "expand " + row()
		case k < 34:
			return "collapse " + row()
		case k < 37:
			return "expandall"
		case k < 41:
			return "expandall " + row()
		case k < 44:
			return "select " + row()
		case k < 50:
			return "hot " + col()
		case k < 56:
			return "sort " + col() + pick("", ":excl")
		case k < 58:
			return "sort name"
		case k < 60:
			return "cols " + pick("all", col()+","+col()+":excl")
		case k < 63:
			return "threshold " + pick("0.3", "0.5", "0.9", "1", "0", "1.5")
		case k < 66:
			return "zoom " + row()
		case k < 68:
			return "out"
		case k < 73:
			return "flatten"
		case k < 75:
			return "unflatten"
		case k < 80:
			a, b := ref(), ref()
			return "derived " + pick("x", "y", "z") + "=" + pick(a+"*2", a+"-"+b, a+"*"+b, "0-"+a, a+"/("+b+"+1)", a+"+"+b+"*3")
		case k < 82:
			return "stats " + col() + pick("", ":excl")
		case k < 85:
			return "top " + pick("0", "1", "2", "3", "5")
		case k < 88:
			return "depth " + pick("0", "2", "3", "4")
		case k < 89:
			return "metrics"
		case m.catalog == "":
		case k < 94:
			return "diff " + m.catalog
		default:
			return "back"
		}
	}
}

// Generate draws a script of n commands with seed, running each on m as it
// goes.
func Generate(seed int64, n int, m *Model) []string {
	rng := rand.New(rand.NewSource(seed))
	script := make([]string, n)
	for i := range script {
		script[i] = m.Next(rng)
		m.Exec(script[i])
	}
	return script
}

// Listing is what a session lists, as Rows gives it: rows are the
// session's visible rows, in render.Walk's order, and value reads a cell of
// one, the session's own formulas included.
func Listing(rows []render.Row, ncols int, value func(n *core.Node, id int, inclusive bool) float64) []Shown {
	out := make([]Shown, len(rows))
	var at []string // the path of the last row at each depth
	for i, r := range rows {
		parent := ""
		if r.Depth > 0 {
			parent = at[r.Depth-1]
		}
		s := Shown{Path: parent + "/" + r.Node.Label(), Depth: r.Depth, Plus: r.HasHidden, Cut: int(r.Cut)}
		at = append(at[:r.Depth], s.Path)
		for _, inclusive := range []bool{true, false} {
			for id := range ncols {
				s.Cells = append(s.Cells, value(r.Node, id, inclusive))
			}
		}
		out[i] = s
	}
	return out
}

// A Surface is one session as a test drives it: Do runs a command line and
// returns what the session printed and its error ("" when none), and Rows
// lists what the session shows after it.
type Surface struct {
	Do   func(line string) (out, err string)
	Rows func() []Shown
}

// Check runs script on a session and on m, and names the first step at
// which they differ (see Step). It returns what the session printed, as
// Replay does.
func Check(m *Model, script []string, s Surface) (string, error) {
	var out strings.Builder
	for i, line := range script {
		o, e := s.Do(line)
		out.WriteString(printed(o, e))
		if err := m.Step(line, o, e != "", s.Rows()); err != nil {
			return out.String(), fmt.Errorf("step %d of script %q: %w", i, script, err)
		}
	}
	return out.String(), nil
}

// printed is what a front end prints for one command: its output, then its
// error, if any, on an "error: " line.
func printed(out, err string) string {
	if err != "" {
		return out + "error: " + err + "\n"
	}
	return out
}

// Shared checks the sharing relation: scripts, interleaved at random by
// seed, each on its own session over one shared snapshot (surfaces[i] runs
// scripts[i]), list at every step what a fresh model of m does, and print
// what each printed alone.
func Shared(seed int64, m *Model, scripts [][]string, alone []string, surfaces []Surface) error {
	var order []int // a random interleaving: script i's index once per line
	models, got, next := make([]*Model, len(scripts)), make([]string, len(scripts)), make([]int, len(scripts))
	for i, script := range scripts {
		models[i] = m.Fresh()
		for range script {
			order = append(order, i)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, i := range order {
		line := scripts[i][next[i]]
		next[i]++
		o, e := surfaces[i].Do(line)
		got[i] += printed(o, e)
		if err := models[i].Step(line, o, e != "", surfaces[i].Rows()); err != nil {
			return fmt.Errorf("interleaving seed %d: script %d %q: %w", seed, i, scripts[i], err)
		}
	}
	for i := range got {
		if got[i] != alone[i] {
			return fmt.Errorf("interleaving seed %d: script %d %q prints, shared, what it does not alone: %s", seed, i, scripts[i], FirstDiff(got[i], alone[i]))
		}
	}
	return nil
}

// FirstDiff names the first line at which two transcripts differ.
func FirstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d is %q, not %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, not %d", len(g), len(w))
}

// Replay runs script through do and returns what it printed.
func Replay(script []string, do func(line string) (out, err string)) string {
	var out strings.Builder
	for _, line := range script {
		out.WriteString(printed(do(line)))
	}
	return out.String()
}
