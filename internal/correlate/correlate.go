// Package correlate is the hpcprof equivalent: it fuses raw call path
// profiles (PC tries from the sampler) with recovered static structure
// (loops, inlined code, line maps) to synthesize the canonical calling
// context tree the paper's views are built from (Section IV-A: "this data
// structure is synthesized by hpcprof by integrating information about
// static program structure into dynamic call chains").
//
// Each sampled call path is a list of call-instruction addresses. Every
// address is resolved against the structure document: the call site's
// enclosing loops and inlined frames materialize as static scopes *within
// the caller's frame* — which is how a Calling Context View line like
// Figure 3's shows "loop at integrate_erk.f90: 82" between two procedure
// frames — and the callee's identity is taken from the procedure containing
// the next-deeper address.
//
// Since the ingestion-core refactor (DESIGN.md §16) the package is one
// implementation of the format-neutral internal/source boundary: Source
// adapts an (hpcrun profile, structure document) pair into a
// source.Profile (a Walk) whose sample stream replays the historical
// correlation walk exactly, and Correlate/Into are thin wrappers over
// source.Build.
// The resulting trees are byte-identical to the pre-refactor correlator
// (locked by TestCorrelateSourceLock).
package correlate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/structfile"
)

// Correlate builds a canonical CCT for one profile. The tree's metric
// registry gets one raw column per profile metric, in order.
func Correlate(doc *structfile.Doc, prof *profile.Profile) (*core.Tree, error) {
	tree := core.NewTree(prof.Program, metric.NewRegistry())
	if _, err := Into(tree, doc, prof); err != nil {
		return nil, err
	}
	tree.ComputeMetrics()
	return tree, nil
}

// Into correlates a profile into an existing tree, creating any missing
// metric columns (matched by name) and scopes. It returns the column
// mapping from profile metric index to registry column. Metric values
// accumulate, so correlating several ranks into one tree yields the summed
// profile of Section IV's finalization step.
func Into(tree *core.Tree, doc *structfile.Doc, prof *profile.Profile) ([]int, error) {
	return source.Build(tree, Source(doc, prof))
}

// Source adapts one hpcrun measurement (profile + structure document) to
// the format-neutral source boundary. Validation (profile invariants,
// build fingerprints, structure coverage) happens when the sample stream
// starts.
func Source(doc *structfile.Doc, prof *profile.Profile) source.Profile {
	return &Walk{doc: doc, prof: prof}
}

// Walk is the correlation of one profile against a structure document, in
// two passes over the trie. The resolve pass does everything that can fail
// — profile invariants, build fingerprint, metric descriptors, one
// structure lookup per frame, call site and sample PC — and keeps the
// lookups; the replay pass turns them into the sample stream and fails
// only if its consumer does. A consumer that must not be left half
// updated by a bad profile (the merge) calls Resolve first. A Walk can be
// rebound to profile after profile and reuses its buffers.
type Walk struct {
	doc      *structfile.Doc
	prof     *profile.Profile
	resolved bool
	res      []structfile.Resolution // the resolve pass's lookups, in walk order
	next     int                     // replay position in res
	emit     func(path []source.Scope, values []float64) error
	path     []source.Scope
	vals     []float64
}

func (w *Walk) Program() string { return w.prof.Program }

func (w *Walk) Identity() source.Identity {
	return source.Identity{Rank: w.prof.Rank, Thread: w.prof.Thread}
}

func (w *Walk) Metrics() []source.Metric {
	out := make([]source.Metric, len(w.prof.Metrics))
	for i, m := range w.prof.Metrics {
		out[i] = source.Metric{Name: m.Name, Unit: m.Unit, Period: m.Period}
	}
	return out
}

// Resolve binds the walk to prof and runs the resolve pass. The walk order
// (callee, call site, own samples by PC, then children by call PC) is the
// replay's, so the replay consumes the lookups front to back.
func (w *Walk) Resolve(doc *structfile.Doc, prof *profile.Profile) error {
	w.doc, w.prof, w.resolved = doc, prof, false
	if err := prof.Validate(); err != nil {
		return err
	}
	if doc.Fingerprint != 0 && prof.Fingerprint != 0 && doc.Fingerprint != prof.Fingerprint {
		return fmt.Errorf(
			"correlate: profile (rank %d) was measured from a different build than the structure document (fingerprint %x vs %x)",
			prof.Rank, prof.Fingerprint, doc.Fingerprint)
	}
	for _, m := range prof.Metrics {
		if m.Name == "" || m.Period == 0 {
			return fmt.Errorf("correlate: metric %q (period %d) needs a name and a non-zero period", m.Name, m.Period)
		}
	}
	// Intern every scope name/file once per document, so the replay builds
	// integer keys without touching string bytes.
	doc.EnsureSyms()
	w.res = w.res[:0]
	if err := w.resolve(prof.Root); err != nil {
		return err
	}
	w.resolved = true
	return nil
}

func (w *Walk) lookup(what string, pc uint64) error {
	res, ok := w.doc.Resolve(pc)
	if !ok {
		return fmt.Errorf("correlate: %sPC 0x%x not covered by structure document", what, pc)
	}
	w.res = append(w.res, res)
	return nil
}

func (w *Walk) resolve(raw *profile.Node) error {
	framePC, ok := anyPCWithin(raw)
	if !ok {
		// An empty frame (no samples anywhere below): nothing to
		// attribute — performance data is sparse (Section V-A).
		return nil
	}
	if err := w.lookup("", framePC); err != nil {
		return err
	}
	if raw.CallPC != 0 {
		if err := w.lookup("call ", raw.CallPC); err != nil {
			return err
		}
	}
	for _, row := range raw.Samples() {
		if err := w.lookup("sample ", row.PC); err != nil {
			return err
		}
	}
	for _, child := range raw.Children() {
		if err := w.resolve(child); err != nil {
			return err
		}
	}
	return nil
}

// Samples replays the correlation walk as a sample stream: for every trie
// frame the call site's static chain and the callee identity, then one
// sample per leaf PC with the full scope path. The walk order fixes the
// node creation order source.Build produces, byte-identical to the
// historical in-place correlator.
func (w *Walk) Samples(emit func(path []source.Scope, values []float64) error) error {
	if !w.resolved {
		if err := w.Resolve(w.doc, w.prof); err != nil {
			return err
		}
	}
	w.next, w.emit, w.path = 0, emit, w.path[:0]
	w.vals = append(w.vals[:0], make([]float64, len(w.prof.Metrics))...)
	return w.frame(w.prof.Root)
}

// lookedUp returns the resolve pass's next lookup.
func (w *Walk) lookedUp() *structfile.Resolution {
	w.next++
	return &w.res[w.next-1]
}

// frame handles one raw trie node: it pushes the fused call-site/callee
// Frame scope (materializing the call site's loop and inline context
// first), emits the node's samples inside that frame and then recurses
// into the children.
func (w *Walk) frame(raw *profile.Node) error {
	if _, ok := anyPCWithin(raw); !ok {
		return nil
	}
	calleeRes := w.lookedUp()
	depth := len(w.path)
	fr := source.Scope{
		Key: core.Key{
			Kind: core.KindFrame,
			Name: calleeRes.Proc.NameSym,
			File: calleeRes.Proc.FileSym,
			Line: calleeRes.Proc.Line,
			ID:   raw.CallPC,
		},
		NoSource: calleeRes.Proc.NoSource,
	}
	if calleeRes.LM != nil {
		fr.Mod = calleeRes.LM.NameSym
	}
	if raw.CallPC != 0 {
		// The loops and inlined frames *containing the call site*
		// become static scopes between the caller and callee frames
		// (Section III-D.2).
		callRes := w.lookedUp()
		w.pushChain(callRes.Chain)
		fr.CallLine = callRes.Stmt.Line
		fr.CallFile = callRes.Stmt.FileSym
	}
	w.path = append(w.path, fr)

	for _, row := range raw.Samples() {
		res := w.lookedUp()
		mark := len(w.path)
		w.pushChain(res.Chain)
		w.path = append(w.path, source.Scope{
			Key: core.Key{
				Kind: core.KindStmt,
				File: res.Stmt.FileSym,
				Line: res.Stmt.Line,
			},
			NoSource: res.Proc.NoSource,
		})
		for mi, count := range row.Counts {
			w.vals[mi] = float64(count)
		}
		if err := w.emit(w.path, w.vals); err != nil {
			return err
		}
		w.path = w.path[:mark]
	}

	for _, child := range raw.Children() {
		if err := w.frame(child); err != nil {
			return err
		}
	}
	w.path = w.path[:depth]
	return nil
}

// pushChain appends the loop/alien scopes of a static chain to the path
// stack.
func (w *Walk) pushChain(chain []*structfile.Scope) {
	for _, s := range chain {
		switch s.Kind {
		case structfile.KindLoop:
			w.path = append(w.path, source.Scope{
				Key: core.Key{Kind: core.KindLoop, File: s.FileSym, Line: s.Line, ID: scopeID(s)},
			})
		case structfile.KindAlien:
			w.path = append(w.path, source.Scope{
				Key:      core.Key{Kind: core.KindAlien, Name: s.NameSym, File: s.FileSym, Line: s.Line, ID: scopeID(s)},
				CallLine: s.CallLine,
			})
		}
	}
}

// scopeID returns a stable identifier for a structure scope: its first
// address. Distinct loops and inline sites occupy distinct address ranges.
func scopeID(s *structfile.Scope) uint64 {
	if len(s.Ranges) > 0 {
		return s.Ranges[0].Lo
	}
	return 0
}

// anyPCWithin finds a PC belonging to the frame itself: a sample PC, or
// transitively a child's call PC (which lies in this frame's procedure).
func anyPCWithin(raw *profile.Node) (uint64, bool) {
	for _, row := range raw.Samples() {
		return row.PC, true
	}
	for _, child := range raw.Children() {
		return child.CallPC, true
	}
	return 0, false
}
