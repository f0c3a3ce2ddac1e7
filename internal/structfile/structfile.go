// Package structfile is the hpcstruct equivalent: it recovers a program's
// static structure — load module → file → procedure → loop → inlined code →
// statement — from a lowered image, records the address ranges of every
// scope, and serializes the result as an XML structure document. hpcprof's
// stand-in (internal/correlate) resolves sampled PCs against this document
// to fuse dynamic call paths with static structure, exactly the fusion the
// paper's Calling Context View presents (Section III-D).
package structfile

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cfg"
	"repro/internal/intern"
	"repro/internal/isa"
)

// Kind enumerates structure-scope kinds.
type Kind uint8

const (
	// KindRoot is the document root.
	KindRoot Kind = iota
	// KindLM is a load module.
	KindLM
	// KindFile is a source file.
	KindFile
	// KindProc is a procedure.
	KindProc
	// KindLoop is a recovered loop.
	KindLoop
	// KindAlien is inlined code (hpcstruct's "alien" scope).
	KindAlien
	// KindStmt is a statement (one source line's instructions within a
	// context).
	KindStmt
)

func (k Kind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindLM:
		return "lm"
	case KindFile:
		return "file"
	case KindProc:
		return "proc"
	case KindLoop:
		return "loop"
	case KindAlien:
		return "alien"
	case KindStmt:
		return "stmt"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Range is a half-open address interval [Lo, Hi).
type Range struct {
	Lo, Hi uint64
}

// Contains reports whether addr lies in the range.
func (r Range) Contains(addr uint64) bool { return addr >= r.Lo && addr < r.Hi }

// Scope is a node of the structure tree.
type Scope struct {
	Kind Kind
	// Name is the module name (LM), file name (File), or procedure name
	// (Proc, Alien). Empty for loops and statements.
	Name string
	// File is the source file of Proc/Loop/Alien/Stmt scopes ("" when
	// unknown, e.g. binary-only procedures).
	File string
	// Line is the defining line: procedure header, loop header,
	// statement line, or — for Alien scopes — the line of the inlined
	// procedure's declaration.
	Line int
	// CallLine is, for Alien scopes, the source line of the call that
	// was inlined away (in the *enclosing* context's file).
	CallLine int
	// NoSource marks procedures with no source information.
	NoSource bool
	// Ranges are the scope's address intervals, sorted and disjoint.
	Ranges []Range
	// Children are sub-scopes ordered by first address.
	Children []*Scope
	// Parent is the enclosing scope (nil at the root); not serialized.
	Parent *Scope

	// NameSym/FileSym are the interned forms of Name/File, populated by
	// Doc.EnsureSyms so that correlation builds CCT keys without
	// re-interning strings per sample.
	NameSym intern.Sym
	FileSym intern.Sym
}

// ContainsAddr reports whether any of the scope's ranges contains addr.
func (s *Scope) ContainsAddr(addr uint64) bool {
	// Ranges are sorted by Lo.
	i := sort.Search(len(s.Ranges), func(i int) bool { return s.Ranges[i].Hi > addr })
	return i < len(s.Ranges) && s.Ranges[i].Contains(addr)
}

// Doc is a whole structure document.
type Doc struct {
	Program string
	// Fingerprint identifies the analyzed image (isa.Image.Fingerprint);
	// zero means unknown.
	Fingerprint uint64
	Root        *Scope

	// indexOnce guards the lazy leafIndex build so a shared document can
	// be resolved from many correlation goroutines at once (the parallel
	// merge pipeline correlates one rank per worker against one Doc).
	indexOnce sync.Once
	leafIndex []leafEntry // built lazily by Resolve

	// symOnce guards EnsureSyms for the same reason: many correlation
	// goroutines share one Doc.
	symOnce sync.Once
}

// EnsureSyms interns every scope's Name and File exactly once per document,
// filling NameSym/FileSym. Safe (and cheap) to call from many goroutines.
func (d *Doc) EnsureSyms() {
	d.symOnce.Do(func() {
		var walk func(s *Scope)
		walk = func(s *Scope) {
			s.NameSym = intern.S(s.Name)
			s.FileSym = intern.S(s.File)
			for _, c := range s.Children {
				walk(c)
			}
		}
		if d.Root != nil {
			walk(d.Root)
		}
	})
}

// leafEntry is one statement address range with the statement's static
// context, computed once when the index is built.
type leafEntry struct {
	r   Range
	res Resolution
}

// Recover analyzes the image and produces its structure document. Loops are
// recovered by dominator analysis (internal/cfg); inlined code is
// reconstructed from the image's provenance records; statements group
// instructions by source line within their innermost context.
func Recover(im *isa.Image) (*Doc, error) {
	if err := im.Validate(); err != nil {
		return nil, fmt.Errorf("structfile: %w", err)
	}
	doc := &Doc{Program: im.Name, Fingerprint: im.Fingerprint(), Root: &Scope{Kind: KindRoot, Name: im.Name}}

	lmScopes := make([]*Scope, len(im.Modules))
	for i, name := range im.Modules {
		lmScopes[i] = &Scope{Kind: KindLM, Name: name, Parent: doc.Root}
		doc.Root.Children = append(doc.Root.Children, lmScopes[i])
	}
	// One File scope per file symbol, plus a synthetic "<unknown>" file
	// per module for binary-only procedures.
	fileScopes := make([]*Scope, len(im.Files))
	for i, f := range im.Files {
		fs := &Scope{Kind: KindFile, Name: f.Name, Parent: lmScopes[f.Module]}
		lmScopes[f.Module].Children = append(lmScopes[f.Module].Children, fs)
		fileScopes[i] = fs
	}
	unknownFile := map[int32]*Scope{}
	fileFor := func(file int32, module int32) *Scope {
		if file != isa.NoFile {
			return fileScopes[file]
		}
		if fs, ok := unknownFile[module]; ok {
			return fs
		}
		fs := &Scope{Kind: KindFile, Name: "", Parent: lmScopes[module], NoSource: true}
		lmScopes[module].Children = append(lmScopes[module].Children, fs)
		unknownFile[module] = fs
		return fs
	}

	for pi := range im.Procs {
		if err := recoverProc(im, int32(pi), fileFor, fileScopes); err != nil {
			return nil, err
		}
	}

	finalize(doc.Root)
	return doc, nil
}

// childKey identifies a child scope within its parent during recovery.
type childKey struct {
	kind Kind
	id   int32 // loop head instr (Loop) or inline node id (Alien)
	file int32
	line int32
}

func recoverProc(im *isa.Image, pi int32, fileFor func(file, module int32) *Scope, fileScopes []*Scope) error {
	sym := im.Procs[pi]
	module := int32(0)
	if sym.File != isa.NoFile {
		module = im.Files[sym.File].Module
	}
	parentFile := fileFor(sym.File, module)
	procScope := &Scope{
		Kind:     KindProc,
		Name:     sym.Name,
		File:     parentFile.Name,
		Line:     int(sym.Line),
		NoSource: sym.File == isa.NoFile,
		Parent:   parentFile,
	}
	parentFile.Children = append(parentFile.Children, procScope)

	g, err := cfg.Build(im, pi)
	if err != nil {
		return err
	}
	forest := g.NaturalLoops()

	children := map[*Scope]map[childKey]*Scope{}
	getChild := func(parent *Scope, key childKey, mk func() *Scope) *Scope {
		m := children[parent]
		if m == nil {
			m = map[childKey]*Scope{}
			children[parent] = m
		}
		if c, ok := m[key]; ok {
			return c
		}
		c := mk()
		c.Parent = parent
		parent.Children = append(parent.Children, c)
		m[key] = c
		return c
	}

	fileName := func(fid int32) string {
		if fid == isa.NoFile {
			return ""
		}
		return im.Files[fid].Name
	}

	for i := sym.Start; i < sym.End; i++ {
		instr := &im.Code[i]
		loops := forest.Chain(i)
		inlineIDs := im.InlineChainIDs(i)

		// Interleave inline frames and loops by the inline depth at
		// which each loop's control resides, reconstructing structures
		// like Figure 5's loop -> inlined find -> inlined loop ->
		// inlined compare hierarchy.
		cur := procScope
		consumed := 0
		emitAliens := func(upto int) {
			for ; consumed < upto && consumed < len(inlineIDs); consumed++ {
				id := inlineIDs[consumed]
				node := im.Inlines[id]
				cur = getChild(cur, childKey{kind: KindAlien, id: id}, func() *Scope {
					return &Scope{
						Kind:     KindAlien,
						Name:     node.Proc,
						File:     fileName(node.File),
						Line:     int(node.DeclLine),
						CallLine: int(node.CallLine),
					}
				})
			}
		}
		for _, l := range loops {
			loop := l
			emitAliens(im.InlineDepth(loop.Inline))
			head := g.Blocks[loop.Head].Start
			cur = getChild(cur, childKey{kind: KindLoop, id: head}, func() *Scope {
				return &Scope{
					Kind: KindLoop,
					File: fileName(loop.File),
					Line: int(loop.Line),
				}
			})
		}
		emitAliens(len(inlineIDs))

		stmt := getChild(cur, childKey{kind: KindStmt, file: instr.File, line: instr.Line}, func() *Scope {
			return &Scope{Kind: KindStmt, File: fileName(instr.File), Line: int(instr.Line)}
		})

		// Charge the instruction's address interval to the whole path.
		lo, hi := im.Addr(i), im.Addr(i+1)
		for s := stmt; s != nil && s.Kind != KindFile; s = s.Parent {
			addRange(s, lo, hi)
		}
	}
	return nil
}

// addRange appends [lo,hi), coalescing with the last range when adjacent.
// Instructions are visited in ascending address order, so appending keeps
// ranges sorted.
func addRange(s *Scope, lo, hi uint64) {
	if n := len(s.Ranges); n > 0 && s.Ranges[n-1].Hi == lo {
		s.Ranges[n-1].Hi = hi
		return
	}
	s.Ranges = append(s.Ranges, Range{Lo: lo, Hi: hi})
}

// finalize orders children by first address (statements and loops appear in
// code order) and propagates nothing else; ranges are already coalesced.
func finalize(s *Scope) {
	sort.SliceStable(s.Children, func(i, j int) bool {
		a, b := s.Children[i], s.Children[j]
		al, bl := firstAddr(a), firstAddr(b)
		if al != bl {
			return al < bl
		}
		return a.Line < b.Line
	})
	for _, c := range s.Children {
		finalize(c)
	}
}

func firstAddr(s *Scope) uint64 {
	if len(s.Ranges) > 0 {
		return s.Ranges[0].Lo
	}
	min := uint64(1<<63 - 1)
	for _, c := range s.Children {
		if a := firstAddr(c); a < min {
			min = a
		}
	}
	return min
}

// Resolution is the static context of one address: the load module, file
// and procedure containing it, the chain of loop/alien scopes from
// outermost to innermost, and the statement. Proc and Stmt are never nil.
// Chain is shared by every address of the same context: read-only.
type Resolution struct {
	LM    *Scope
	File  *Scope
	Proc  *Scope
	Chain []*Scope // loops and aliens, outermost first
	Stmt  *Scope
}

// Resolve maps an address to its static context. The second result is
// false when the address is not covered by the document.
func (d *Doc) Resolve(addr uint64) (Resolution, bool) {
	d.indexOnce.Do(d.buildIndex)
	i := sort.Search(len(d.leafIndex), func(i int) bool { return d.leafIndex[i].r.Hi > addr })
	if i >= len(d.leafIndex) || !d.leafIndex[i].r.Contains(addr) {
		return Resolution{}, false
	}
	return d.leafIndex[i].res, true
}

// buildIndex collects every statement's ranges with the context above it;
// the outermost module, file and procedure win, as they did when Resolve
// walked parents. A statement outside any procedure has no frame to be
// attributed to and is left out (ReadXML refuses such documents).
func (d *Doc) buildIndex() {
	var walk func(s *Scope, ctx Resolution)
	walk = func(s *Scope, ctx Resolution) {
		switch s.Kind {
		case KindStmt:
			if ctx.Proc == nil {
				return
			}
			ctx.Stmt = s
			for _, r := range s.Ranges {
				d.leafIndex = append(d.leafIndex, leafEntry{r: r, res: ctx})
			}
			return
		case KindLoop, KindAlien:
			// A fresh array per scope: siblings must not share a tail.
			ctx.Chain = append(ctx.Chain[:len(ctx.Chain):len(ctx.Chain)], s)
		case KindProc:
			if ctx.Proc == nil {
				ctx.Proc = s
			}
		case KindFile:
			if ctx.File == nil {
				ctx.File = s
			}
		case KindLM:
			if ctx.LM == nil {
				ctx.LM = s
			}
		}
		for _, c := range s.Children {
			walk(c, ctx)
		}
	}
	walk(d.Root, Resolution{})
	sort.Slice(d.leafIndex, func(i, j int) bool { return d.leafIndex[i].r.Lo < d.leafIndex[j].r.Lo })
	if d.leafIndex == nil {
		d.leafIndex = []leafEntry{}
	}
}

// FindProc returns the procedure scope with the given name, or nil.
func (d *Doc) FindProc(name string) *Scope {
	var found *Scope
	var walk func(s *Scope)
	walk = func(s *Scope) {
		if found != nil {
			return
		}
		if s.Kind == KindProc && s.Name == name {
			found = s
			return
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(d.Root)
	return found
}

// Stats summarizes a document for logging and tests.
type Stats struct {
	LMs, Files, Procs, Loops, Aliens, Stmts int
}

// Stats counts scopes by kind.
func (d *Doc) Stats() Stats {
	var st Stats
	var walk func(s *Scope)
	walk = func(s *Scope) {
		switch s.Kind {
		case KindLM:
			st.LMs++
		case KindFile:
			st.Files++
		case KindProc:
			st.Procs++
		case KindLoop:
			st.Loops++
		case KindAlien:
			st.Aliens++
		case KindStmt:
			st.Stmts++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(d.Root)
	return st
}
