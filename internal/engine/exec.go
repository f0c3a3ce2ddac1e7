package engine

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/imbalance"
	"repro/internal/render"
)

// The command surface maps hpcviewer's toolbar onto line commands; Exec
// interprets one command against a session. It is the shared grammar of
// every frontend: `hpcviewer -interactive` feeds it stdin lines, hpcserver
// feeds it HTTP request bodies — the engine responds identically.

// Help describes the commands.
const Help = `commands:
  ls                      render the current view (rows are numbered)
  view cc|callers|flat    switch view
  expand N / collapse N   open or close row N
  expandall [N]           open everything under row N (or the whole view)
  select N                select row N (hot paths and src start here)
  hot METRIC              hot-path analysis; expands and highlights
  sort METRIC[:excl]      sort by a metric column; sort name = A-to-Z
  cols M1,M2[:excl]/all   choose metric pane columns
  threshold T             hot-path threshold in (0,1]
  zoom N / out            restrict the CC view to row N / undo
  flatten / unflatten     elide or restore the flat view's top level
  derived NAME=FORMULA    add a derived metric ($n column references)
  stats METRIC[:excl]     summary statistics over the visible rows
  src [N]                 show source around row N (or the selection)
  plot METRIC [bins]      per-rank scatter/sorted/histogram at the selection
  metrics                 list metric columns
  catalog                 list databases available to diff against
  diff NAME [METRIC] [MODE]  diff against catalog entry NAME (mode:
                          auto|none|weak|strong); rebases onto the union
  back                    leave the diff, restore the original database
  top N / depth N         limit every sibling list (top level too) / depth
  help                    this text
  quit                    leave`

// Exec runs one command line. It returns true when the session should
// end. Errors are user errors (bad command, bad row) and do not terminate
// the session.
func Exec(s *Session, line string, out io.Writer) (quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false, nil
	}
	cmd, args := fields[0], fields[1:]

	rowArg := func() (*core.Node, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("%s takes a row number", cmd)
		}
		idx, err := strconv.Atoi(args[0])
		if err != nil {
			return nil, fmt.Errorf("bad row %q", args[0])
		}
		return s.RowNode(idx)
	}
	// Metric names resolve against the session registry, so commands can
	// address this session's derived columns too.
	metricArg := func(spec string) (*core.SortSpec, error) {
		name, excl := strings.CutSuffix(spec, ":excl")
		d := s.Registry().ByName(name)
		if d == nil {
			return nil, fmt.Errorf("unknown metric %q", name)
		}
		return &core.SortSpec{MetricID: d.ID, Exclusive: excl}, nil
	}
	renderNow := func() error {
		return s.Render(out, render.Options{})
	}

	switch cmd {
	case "quit", "exit", "q":
		return true, nil
	case "help", "?":
		fmt.Fprintln(out, Help)
		return false, nil
	case "ls":
		return false, renderNow()
	case "view":
		if len(args) != 1 {
			return false, fmt.Errorf("view takes cc, callers or flat")
		}
		switch args[0] {
		case "cc":
			s.SwitchView(ViewCC)
		case "callers":
			s.SwitchView(ViewCallers)
		case "flat":
			s.SwitchView(ViewFlat)
		default:
			return false, fmt.Errorf("unknown view %q", args[0])
		}
		return false, renderNow()
	case "expand":
		n, err := rowArg()
		if err != nil {
			return false, err
		}
		s.Expand(n)
		return false, renderNow()
	case "collapse":
		n, err := rowArg()
		if err != nil {
			return false, err
		}
		s.Collapse(n)
		return false, renderNow()
	case "expandall":
		var n *core.Node // nil: the whole view
		if len(args) > 0 {
			var err error
			if n, err = rowArg(); err != nil {
				return false, err
			}
		}
		if err := s.ExpandAll(n); err != nil {
			return false, err
		}
		return false, renderNow()
	case "select":
		n, err := rowArg()
		if err != nil {
			return false, err
		}
		s.Select(n)
		fmt.Fprintf(out, "selected %s\n", n.Label())
		return false, nil
	case "hot":
		if len(args) != 1 {
			return false, fmt.Errorf("hot takes a metric name")
		}
		spec, err := metricArg(args[0])
		if err != nil {
			return false, err
		}
		path := s.HotPath(spec.MetricID)
		if len(path) == 0 {
			fmt.Fprintln(out, "no hot path")
			return false, nil
		}
		fmt.Fprintf(out, "hot path ends at %s\n", path[len(path)-1].Label())
		return false, renderNow()
	case "sort":
		if len(args) != 1 {
			return false, fmt.Errorf("sort takes METRIC, METRIC:excl or name")
		}
		if args[0] == "name" {
			s.SetSort(core.SortSpec{ByLabel: true})
			return false, renderNow()
		}
		spec, err := metricArg(args[0])
		if err != nil {
			return false, err
		}
		s.SetSort(*spec)
		return false, renderNow()
	case "cols":
		if len(args) != 1 {
			return false, fmt.Errorf("cols takes METRIC[,METRIC...] or all")
		}
		if args[0] == "all" {
			s.SetColumns(nil)
			return false, renderNow()
		}
		var cols []render.Column
		for _, part := range strings.Split(args[0], ",") {
			name, excl := strings.CutSuffix(part, ":excl")
			d := s.Registry().ByName(name)
			if d == nil {
				return false, fmt.Errorf("unknown metric %q", name)
			}
			cols = append(cols, render.Column{MetricID: d.ID, Inclusive: !excl})
		}
		s.SetColumns(cols)
		return false, renderNow()
	case "threshold":
		if len(args) != 1 {
			return false, fmt.Errorf("threshold takes a number in (0,1]")
		}
		t, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return false, fmt.Errorf("bad threshold %q", args[0])
		}
		s.SetThreshold(t)
		return false, nil
	case "zoom":
		n, err := rowArg()
		if err != nil {
			return false, err
		}
		if err := s.ZoomIn(n); err != nil {
			return false, err
		}
		return false, renderNow()
	case "out":
		s.ZoomOut()
		return false, renderNow()
	case "flatten":
		if err := s.FlattenOnce(); err != nil {
			return false, err
		}
		return false, renderNow()
	case "unflatten":
		s.Unflatten()
		return false, renderNow()
	case "derived":
		if len(args) == 0 {
			return false, fmt.Errorf("derived takes NAME=FORMULA")
		}
		// Formulas may contain spaces; rejoin.
		def := strings.Join(args, " ")
		kv := strings.SplitN(def, "=", 2)
		if len(kv) != 2 {
			return false, fmt.Errorf("derived takes NAME=FORMULA")
		}
		if err := s.AddDerivedMetric(strings.TrimSpace(kv[0]), kv[1]); err != nil {
			return false, err
		}
		fmt.Fprintf(out, "added %s\n", strings.TrimSpace(kv[0]))
		return false, nil
	case "stats":
		if len(args) != 1 {
			return false, fmt.Errorf("stats takes METRIC[:excl]")
		}
		spec, err := metricArg(args[0])
		if err != nil {
			return false, err
		}
		st := s.SummaryStats(spec.MetricID, !spec.Exclusive)
		fmt.Fprintf(out, "n=%d sum=%s mean=%s min=%s max=%s stddev=%s imbalance=%.3f\n",
			st.N, statCell(st.Sum()), statCell(st.Mean()), statCell(st.Min),
			statCell(st.Max), statCell(st.StdDev()), st.ImbalanceFactor())
		return false, nil
	case "plot":
		if len(args) < 1 || len(args) > 2 {
			return false, fmt.Errorf("plot takes METRIC [bins]")
		}
		bins := 10
		if len(args) == 2 {
			n, err := strconv.Atoi(args[1])
			if err != nil || n <= 0 || n > imbalance.MaxBins {
				return false, fmt.Errorf("bad bin count %q (1 to %d)", args[1], imbalance.MaxBins)
			}
			bins = n
		}
		return false, s.Plot(out, args[0], bins)
	case "src":
		if len(args) == 1 {
			n, err := rowArg()
			if err != nil {
				return false, err
			}
			s.Select(n)
		}
		return false, s.ShowSource(out, 4)
	case "metrics":
		for _, d := range s.Registry().Columns() {
			fmt.Fprintf(out, "%3d  %-26s %-8s %s\n", d.ID, d.Name, d.Kind, d.Formula)
		}
		return false, nil
	case "catalog":
		c := s.Catalog()
		if c == nil {
			return false, fmt.Errorf("no catalog attached")
		}
		names := c.SnapshotNames()
		if len(names) == 0 {
			fmt.Fprintln(out, "(catalog is empty)")
			return false, nil
		}
		for _, name := range names {
			fmt.Fprintln(out, name)
		}
		return false, nil
	case "diff", "compare":
		if len(args) < 1 || len(args) > 3 {
			return false, fmt.Errorf("diff takes NAME [METRIC] [MODE]")
		}
		var cfg diff.Config
		if len(args) >= 2 {
			cfg.Metrics = []string{args[1]}
		}
		if len(args) == 3 {
			mode, err := diff.ParseMode(args[2])
			if err != nil {
				return false, err
			}
			cfg.Mode = mode
		}
		res, err := s.Compare(args[0], cfg)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "diff: %s (%d ranks) vs %s %q (%d ranks), mode %s\n",
			res.Inputs[0].Label, res.Inputs[0].Ranks,
			res.Inputs[1].Label, args[0], res.Inputs[1].Ranks, res.Mode)
		for _, note := range res.Exp.Notes {
			fmt.Fprintf(out, "note: %s\n", note)
		}
		return false, renderNow()
	case "back":
		if err := s.Back(); err != nil {
			return false, err
		}
		return false, renderNow()
	case "top":
		if len(args) != 1 {
			return false, fmt.Errorf("top takes a number")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return false, fmt.Errorf("bad count %q", args[0])
		}
		s.SetLimits(n, s.maxDepth)
		return false, renderNow()
	case "depth":
		if len(args) != 1 {
			return false, fmt.Errorf("depth takes a number")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return false, fmt.Errorf("bad depth %q", args[0])
		}
		s.SetLimits(s.topN, n)
		return false, renderNow()
	}
	return false, fmt.Errorf("unknown command %q (try help)", cmd)
}

// statCell formats a statistic like a metric cell, with "0" instead of the
// table renderer's blank (a stats line has no column alignment to keep).
func statCell(v float64) string {
	if v == 0 {
		return "0"
	}
	return render.FormatValue(v)
}

// Request is one command submitted to a session through the
// request/response surface.
type Request struct {
	// Line is a command in the Exec grammar (see Help).
	Line string
}

// Response is the engine's answer to one Request.
type Response struct {
	// Output is the rendered text (tables, messages).
	Output string
	// Err is the user-level error text ("" if none).
	Err string
	// Quit reports that the command ended the session.
	Quit bool
}

// Do executes one request against the session and captures the response —
// the transport-independent form of Exec that hpcserver exposes over
// HTTP/JSON.
func (s *Session) Do(req Request) Response {
	var out strings.Builder
	quit, err := Exec(s, req.Line, &out)
	resp := Response{Output: out.String(), Quit: quit}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}
