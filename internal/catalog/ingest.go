package catalog

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/expdb"
)

// Ingest lands one database in the catalog: the payload is streamed to a
// temporary file in the catalog directory, fsynced and renamed into place
// (expdb.WriteFileAtomic — a crash at any instant leaves either nothing or
// the complete file), validated with a full checksum sweep, and only then
// published. A torn, truncated or corrupted payload is rejected with a
// typed IngestError, its file removed, and the series' previous generation
// keeps serving untouched.
func (c *Catalog) Ingest(key Key, r io.Reader) error {
	if err := c.ingest(key, r); err != nil {
		// Duplicates are not damage — the spool path retries them freely —
		// so only real rejections count as errors.
		if !errors.Is(err, ErrDuplicate) {
			c.mu.Lock()
			c.ingestErrors++
			c.mu.Unlock()
		}
		return err
	}
	c.mu.Lock()
	c.ingested++
	c.mu.Unlock()
	return nil
}

func (c *Catalog) ingest(key Key, r io.Reader) error {
	if err := key.Validate(); err != nil {
		return err
	}
	// Reserve the key before doing any I/O and hold the reservation through
	// publish: the on-disk name is deterministic, so two concurrent ingests
	// of one key would otherwise both write the canonical path — the
	// loser's rename replacing the winner's just-published (immutable!)
	// file, and the loser's cleanup deleting the file backing the winner's
	// generation. With the reservation, exactly one ingest per key is ever
	// between duplicate check and publish.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.cfg.Dir == "" {
		c.mu.Unlock()
		return &IngestError{Key: key, Err: fmt.Errorf("catalog has no storage directory")}
	}
	dup := c.reserving[key]
	if s := c.byName[key.Series()]; s != nil {
		for _, g := range s.gens {
			dup = dup || g.key.Ts == key.Ts
		}
	}
	if !dup {
		c.reserving[key] = true
	}
	c.mu.Unlock()
	if dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, key)
	}
	defer func() {
		c.mu.Lock()
		delete(c.reserving, key)
		c.mu.Unlock()
	}()

	path := filepath.Join(c.cfg.Dir, spoolFileName(key))
	if err := os.MkdirAll(c.cfg.Dir, 0o755); err != nil {
		return &IngestError{Key: key, Err: err}
	}
	err := expdb.WriteFileAtomic(path, func(f *os.File) error {
		_, err := io.Copy(f, r)
		return err
	})
	if err != nil {
		return &IngestError{Key: key, Err: err}
	}
	if err := ValidateFile(path); err != nil {
		os.Remove(path)
		return &IngestError{Key: key, Err: err}
	}
	if err := c.Publish(key, path); err != nil {
		// The file is complete and validated. On ErrDuplicate (a direct
		// Publish of this key slipped in despite the reservation) the
		// canonical path now backs the published generation — deleting it
		// would poison every later Acquire — so leave the file alone.
		if !errors.Is(err, ErrDuplicate) {
			os.Remove(path)
		}
		return err
	}
	return nil
}

// ValidateFile fully checks a database file before it may be published:
// the open must succeed, metadata must decode, and every section checksum
// must verify. The serving path tolerates column damage by degrading with
// notes; the ingest path does not tolerate anything — degradation notes
// are rejections here — because rejecting now is free while rejecting
// later costs a session.
func ValidateFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var head [len(expdb.MagicV3)]byte
	n, _ := io.ReadFull(f, head[:])
	f.Close()
	if string(head[:n]) == expdb.MagicV3 {
		mdb, err := expdb.OpenMapped(path)
		if err != nil {
			return err
		}
		defer mdb.Close()
		exp, err := mdb.Experiment()
		if err != nil {
			return err
		}
		// VerifyAll sweeps every section checksum but reports column damage
		// the way serving wants it — detached columns plus a note. Strict
		// mode: any note is a rejection.
		if err := mdb.VerifyAll(); err != nil {
			return err
		}
		if notes := exp.Notes; len(notes) > 0 {
			return fmt.Errorf("damaged database: %s", notes[0])
		}
		return nil
	}
	// XML/v1/v2 are decoded whole, every checksum verified on the way; a
	// degraded open (notes) is a rejection.
	snap, err := engine.Open(path)
	if err != nil {
		return err
	}
	defer snap.Release()
	if notes := snap.Notes(); len(notes) > 0 {
		return fmt.Errorf("damaged database: %s", notes[0])
	}
	return nil
}

// spoolFileName renders a key as its canonical on-disk name,
// "service__run__ts.db" ("service__ts.db" with no run). Key.Validate
// guarantees the parts contain no "__", so the parse is unambiguous.
func spoolFileName(k Key) string {
	if k.Run == "" {
		return fmt.Sprintf("%s__%d.db", k.Service, k.Ts)
	}
	return fmt.Sprintf("%s__%s__%d.db", k.Service, k.Run, k.Ts)
}

// parseSpoolFileName inverts spoolFileName; ok is false for names that are
// not spool databases (temp files, quarantined .bad files, strangers).
func parseSpoolFileName(name string) (Key, bool) {
	base, found := strings.CutSuffix(name, ".db")
	if !found {
		return Key{}, false
	}
	parts := strings.Split(base, "__")
	if len(parts) != 2 && len(parts) != 3 {
		return Key{}, false
	}
	ts, err := strconv.ParseInt(parts[len(parts)-1], 10, 64)
	if err != nil {
		return Key{}, false
	}
	k := Key{Service: parts[0], Ts: ts}
	if len(parts) == 3 {
		k.Run = parts[1]
	}
	if k.Validate() != nil {
		return Key{}, false
	}
	return k, true
}

// LoadDir publishes every database already sitting in the catalog
// directory — the restart path: databases ingested by a previous process
// become resolvable again without copying. Files that fail validation are
// skipped (and logged); they will error with a typed OpenError if later
// acquired by explicit republish.
func (c *Catalog) LoadDir() (published int, err error) {
	if c.cfg.Dir == "" {
		return 0, nil
	}
	ents, err := os.ReadDir(c.cfg.Dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for _, ent := range ents {
		key, ok := parseSpoolFileName(ent.Name())
		if !ok {
			continue
		}
		path := filepath.Join(c.cfg.Dir, ent.Name())
		if verr := ValidateFile(path); verr != nil {
			c.logf("catalog: skipping damaged %s: %v", ent.Name(), verr)
			continue
		}
		if perr := c.Publish(key, path); perr != nil {
			c.logf("catalog: load %s: %v", ent.Name(), perr)
			continue
		}
		published++
	}
	return published, nil
}

// ScanSpool ingests every well-named database file out of a spool
// directory: each is copied into the catalog atomically, validated,
// published and removed from the spool. Files that fail validation are
// renamed to "<name>.bad" so one poisoned drop cannot wedge the watcher in
// a retry loop. Producers must write spool files atomically themselves
// (hpcprof -o does); a file mid-rename is simply not visible yet.
func (c *Catalog) ScanSpool(dir string) (ingested int, firstErr error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		key, ok := parseSpoolFileName(ent.Name())
		if !ok {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		err := c.ingestSpoolFile(key, path)
		switch {
		case err == nil:
			ingested++
			os.Remove(path)
		case errors.Is(err, ErrDuplicate):
			// Already published (e.g. the remove failed last pass); the
			// spool copy is redundant.
			os.Remove(path)
		default:
			c.logf("catalog: quarantining spool file %s: %v", ent.Name(), err)
			if rerr := os.Rename(path, path+".bad"); rerr != nil && firstErr == nil {
				firstErr = rerr
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return ingested, firstErr
}

func (c *Catalog) ingestSpoolFile(key Key, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return &IngestError{Key: key, Err: err}
	}
	defer f.Close()
	return c.Ingest(key, f)
}

// WatchSpool polls dir every interval, ingesting whatever lands there,
// until ctx is cancelled. Intended to run as one goroutine per spool.
func (c *Catalog) WatchSpool(ctx context.Context, dir string, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if _, err := c.ScanSpool(dir); err != nil {
			c.logf("catalog: spool scan %s: %v", dir, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
