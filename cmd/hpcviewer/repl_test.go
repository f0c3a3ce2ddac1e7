package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/oracle"
)

// TestREPLPrintsWhatSessionDoPrints is the session surface's front-end
// relation for the REPL: scripts oracle.Generate draws, piped into
// `hpcviewer -interactive` over a v3 database, print after each prompt what
// Session.Do prints for that command over the same file, and the REPL's
// error lines are Do's errors, in order.
func TestREPLPrintsWhatSessionDoPrints(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	everything, _ := oracle.RandomCCTShape(2, 300, oracle.CCTShape{Entries: 2, Cols: 4, ZeroCol: true, Negative: true})
	recursion, _ := oracle.RandomCCTShape(5, 600, oracle.CCTShape{Cols: 1, RecDepth: 5})
	for name, tree := range map[string]*core.Tree{"fig2": core.Fig1Tree(), "shape/everything": everything, "shape/recursion5": recursion} {
		t.Run(name, func(t *testing.T) {
			e := expdb.New(tree)
			var db bytes.Buffer
			if err := e.WriteBinaryV3(&db); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "experiment.db")
			if err := os.WriteFile(path, db.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := engine.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			model := oracle.NewModel(e, "", nil)
			for seed := int64(1); seed <= int64(seeds); seed++ {
				script := oracle.Generate(seed, 40, model.Fresh())
				stdout, stderr, err := interactive(t, strings.Join(script, "\n")+"\n", "-db", path, "-interactive")
				if err != nil {
					t.Fatal(err)
				}
				after, errs := strings.Split(stdout, "hpcviewer> "), ""
				if len(after) != len(script)+2 {
					t.Fatalf("seed %d: %d prompts for a script of %d commands", seed, len(after)-1, len(script))
				}
				s := engine.NewSession(snap)
				for i, line := range script {
					resp := s.Do(engine.Request{Line: line})
					if after[i+1] != resp.Output {
						t.Fatalf("seed %d: step %d of script %q: after %q the REPL prints\n%s\nSession.Do\n%s", seed, i, script, line, after[i+1], resp.Output)
					}
					if resp.Err != "" {
						errs += "error: " + resp.Err + "\n"
					}
				}
				s.Close()
				if stderr != errs {
					t.Fatalf("seed %d: script %q: the REPL's errors are\n%s\nSession.Do's\n%s", seed, script, stderr, errs)
				}
			}
		})
	}
}
