package engine

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/diff"
)

// Catalog resolves database names to snapshots, so sessions can diff the
// database they present against others the frontend has opened. Lookups
// may be called from many sessions at once; implementations must be safe
// for concurrent use.
type Catalog interface {
	// LookupSnapshot returns the named snapshot with one reference
	// retained for the caller, who must Release it when done. The retain
	// happens under the catalog's lock so a lifecycle catalog can never
	// evict (and unmap) the snapshot between lookup and use.
	LookupSnapshot(name string) (*Snapshot, error)
	// SnapshotNames lists the available names, sorted.
	SnapshotNames() []string
}

// SnapshotCatalog is a static in-memory Catalog. The map must not be
// mutated once sessions can see it.
type SnapshotCatalog map[string]*Snapshot

// LookupSnapshot implements Catalog.
func (c SnapshotCatalog) LookupSnapshot(name string) (*Snapshot, error) {
	sn, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("engine: no database %q in the catalog", name)
	}
	sn.Retain()
	return sn, nil
}

// SnapshotNames implements Catalog.
func (c SnapshotCatalog) SnapshotNames() []string {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DiffInput is one snapshot handed to DiffSnapshots.
type DiffInput struct {
	// Label names the input's columns (see diff.Input).
	Label string
	// Snap is the sealed snapshot to diff.
	Snap *Snapshot
}

// DiffSnapshots unions sealed snapshots into a fresh diff snapshot. The
// inputs are only read, so the snapshots can stay live under other
// sessions throughout.
func DiffSnapshots(cfg diff.Config, inputs ...DiffInput) (*Snapshot, *diff.Result, error) {
	dins := make([]diff.Input, len(inputs))
	for i, in := range inputs {
		if in.Snap == nil {
			return nil, nil, fmt.Errorf("engine: diff input %d has no snapshot", i)
		}
		dins[i] = diff.Input{Label: in.Label, Exp: in.Snap.Experiment()}
	}
	res, err := diff.Diff(cfg, dins...)
	if err != nil {
		return nil, nil, err
	}
	return NewSnapshot(res.Exp), res, nil
}

// SetCatalog attaches the catalog the session's diff command resolves
// names against.
func (s *Session) SetCatalog(c Catalog) { s.catalog = c }

// Catalog returns the attached catalog (nil if none).
func (s *Session) Catalog() Catalog { return s.catalog }

// Compare diffs the session's current database (the baseline, labeled A)
// against the named catalog entry (labeled B) and rebases the session onto
// the union snapshot: every view, sort, hot path and threshold now runs
// over the diff columns like any other database. The pre-diff snapshot is
// remembered; Back returns to it.
func (s *Session) Compare(name string, cfg diff.Config) (*diff.Result, error) {
	if s.catalog == nil {
		return nil, fmt.Errorf("engine: no catalog attached (nothing to diff against)")
	}
	other, err := s.catalog.LookupSnapshot(name)
	if err != nil {
		return nil, err
	}
	snap, res, err := DiffSnapshots(cfg,
		DiffInput{Label: "A", Snap: s.snap},
		DiffInput{Label: "B", Snap: other})
	// The union copies every value into a fresh in-memory experiment, so
	// the lookup reference (which kept other mapped through the walk) can
	// drop as soon as the diff is built — or failed.
	other.Release()
	if err != nil {
		return nil, err
	}
	if s.home == nil {
		// The home pointer is its own reference: the pre-diff snapshot must
		// survive (stay mapped) while the session presents the diff.
		s.home = s.snap
		s.home.Retain()
	}
	s.rebase(snap)
	return res, nil
}

// Back leaves the diff and restores the database the session presented
// before Compare.
func (s *Session) Back() error {
	if s.home == nil {
		return fmt.Errorf("engine: not presenting a diff")
	}
	home := s.home
	s.home = nil
	s.rebase(home)
	// rebase retained home as the new current snapshot; drop the home
	// pointer's reference now that the field is cleared.
	home.Release()
	return nil
}

// InDiff reports whether the session currently presents a Compare result.
func (s *Session) InDiff() bool { return s.home != nil }

// rebase points the session at a different snapshot and resets every piece
// of per-database presentation state — the same reset SwitchView applies,
// widened to the whole session because the scopes, the registry and the
// shared slabs all changed identity.
func (s *Session) rebase(snap *Snapshot) {
	snap.Retain()
	old := s.snap
	s.snap = snap
	old.Release()
	s.reg = snap.exp.Tree.Reg.Clone()
	s.view = ViewCC
	s.callers = nil
	s.opened.clear()
	s.flat = nil
	s.expanded.clear()
	s.highlight = map[*core.Node]bool{}
	s.zoom = nil
	s.flatten = 0
	s.selected = nil
	s.rows = nil
	s.sort = core.SortSpec{}
	s.columns = nil
	s.scratch = nil
	s.overlay = nil
}
