package live

import (
	"fmt"
	"io"
	"time"

	"kgexplore/internal/index"
	"kgexplore/internal/rdf"
	"kgexplore/internal/snap"
)

// CompactResult reports one compaction.
type CompactResult struct {
	// Path of the fresh .kgs snapshot now serving as the base.
	Path string
	// Build is the external-build's spill telemetry.
	Build snap.ExtBuildStats
	// Retired is the PREVIOUS base's closer (nil if it had none). It must
	// not be closed until every View referencing the old base has drained —
	// the server hands it to the refcounted epoch machinery; standalone
	// callers close it once their readers are done.
	Retired io.Closer
	// ResidualAdds/ResidualTombs count the overlay entries that survived
	// adoption: mutations applied while the compaction was building.
	ResidualAdds  int
	ResidualTombs int
	Millis        int64
}

// Compact folds the current view into a fresh .kgs snapshot at path via
// snap.BuildExternal, mmap-loads it, and adopts it as the new base. Ingest
// proceeds concurrently: batches applied while the build streams stay in
// the overlay (reconciled against the new base on adoption), and readers
// keep their old Views until they finish. At most one compaction runs at a
// time (ErrCompacting otherwise). Never called on the write path — this is
// the background job behind `kgserver -live`.
func (s *Store) Compact(path string, o snap.ExtBuildOptions) (CompactResult, error) {
	start := time.Now()
	v, err := s.beginCompact()
	if err != nil {
		return CompactResult{}, err
	}
	feed := func(emit func(rdf.Triple) error) (*rdf.Dict, error) {
		if err := v.Triples(emit); err != nil {
			return nil, err
		}
		return s.dict, nil
	}
	meta := &snap.Meta{Source: fmt.Sprintf("live-compact gen %d", v.Gen()), CreatedUnix: time.Now().Unix()}
	bs, err := snap.BuildExternalFile(path, feed, meta, o)
	if err != nil {
		s.abortCompact(fmt.Errorf("live: compaction build: %w", err))
		return CompactResult{}, err
	}
	ld, err := snap.LoadFile(path, snap.Options{Mode: snap.ModeAuto})
	if err != nil {
		s.abortCompact(fmt.Errorf("live: compaction load: %w", err))
		return CompactResult{}, err
	}
	res := s.finishCompact(ld.Store, ld)
	res.Path = path
	res.Build = bs
	res.Millis = time.Since(start).Milliseconds()
	s.mu.Lock()
	s.lastCompactMillis = res.Millis
	s.mu.Unlock()
	return res, nil
}

// CompactInMemory folds the current view into a freshly built in-memory
// index.Store and adopts it — the no-disk compaction for tests and
// benchmarks. The write path of ingest never calls this.
func (s *Store) CompactInMemory() (*index.Store, CompactResult, error) {
	v, err := s.beginCompact()
	if err != nil {
		return nil, CompactResult{}, err
	}
	g := &rdf.Graph{Dict: s.dict}
	g.Triples = make([]rdf.Triple, 0, v.NumTriples())
	_ = v.Triples(func(t rdf.Triple) error {
		g.Triples = append(g.Triples, t)
		return nil
	})
	nb := index.Build(g)
	res := s.finishCompact(nb, nil)
	return nb, res, nil
}

// beginCompact captures the view to fold and opens the reconciliation
// window: until finishCompact or abortCompact, every mutated triple is
// recorded in s.touched.
func (s *Store) beginCompact() (*View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capturing {
		return nil, ErrCompacting
	}
	s.capturing = true
	s.touched = make(map[rdf.Triple]struct{})
	return s.cur.Load(), nil
}

func (s *Store) abortCompact(err error) {
	s.mu.Lock()
	s.capturing = false
	s.touched = nil
	s.lastErr = err
	s.mu.Unlock()
}

// finishCompact adopts newBase and recomputes the residual overlay. The
// standard recompute — keep adds the new base lacks, keep tombstones the
// new base still contains — is correct for every overlay entry that still
// exists. Entries REMOVED during the build window need the touched-set
// reconciliation: a pending add that was captured into the new base and
// then cancelled must become a tombstone, and a tombstoned base triple
// that was captured out and then resurrected must become an add. For each
// touched triple the rule is simply "make the new overlay agree with
// current liveness".
func (s *Store) finishCompact(newBase *index.Store, newCloser io.Closer) CompactResult {
	s.mu.Lock()
	defer s.mu.Unlock()

	liveNow := func(t rdf.Triple) bool {
		if _, pending := s.addSet[t]; pending {
			return true
		}
		if s.base.Contains(t) {
			_, dead := s.tombs[t]
			return !dead
		}
		return false
	}

	newAdds := make([]rdf.Triple, 0, len(s.adds))
	newAddSet := make(map[rdf.Triple]int, len(s.adds))
	for _, t := range s.adds {
		if newBase.Contains(t) {
			continue
		}
		newAddSet[t] = len(newAdds)
		newAdds = append(newAdds, t)
	}
	newTombs := make(map[rdf.Triple]struct{})
	for t := range s.tombs {
		if newBase.Contains(t) {
			newTombs[t] = struct{}{}
		}
	}
	for t := range s.touched {
		live := liveNow(t)
		inNew := newBase.Contains(t)
		switch {
		case live && !inNew:
			if _, ok := newAddSet[t]; !ok {
				newAddSet[t] = len(newAdds)
				newAdds = append(newAdds, t)
			}
			delete(newTombs, t)
		case !live && inNew:
			if i, ok := newAddSet[t]; ok {
				last := len(newAdds) - 1
				newAdds[i] = newAdds[last]
				newAddSet[newAdds[i]] = i
				newAdds = newAdds[:last]
				delete(newAddSet, t)
			}
			newTombs[t] = struct{}{}
		case live && inNew:
			delete(newTombs, t)
		}
	}

	retired := s.baseCloser
	s.base = newBase
	s.baseCloser = newCloser
	s.adds, s.addSet, s.tombs = newAdds, newAddSet, newTombs
	s.capturing = false
	s.touched = nil
	s.compactions++

	// Publish the adopted generation. publishLocked reuses the previous
	// view's delta only when clean; adoption always rebuilds.
	s.publishLocked(true)

	if s.wal != nil {
		recs := make([]DecodedOp, 0, len(newAdds)+len(newTombs))
		for _, t := range newAdds {
			recs = append(recs, DecodedOp{S: s.dict.Term(t.S), P: s.dict.Term(t.P), O: s.dict.Term(t.O)})
		}
		for t := range newTombs {
			recs = append(recs, DecodedOp{Del: true, S: s.dict.Term(t.S), P: s.dict.Term(t.P), O: s.dict.Term(t.O)})
		}
		if err := s.wal.rewrite(recs); err != nil {
			// The old log still replays to a superset of the overlay whose
			// re-application is idempotent, so a failed rewrite loses no
			// durability — record it for /healthz and move on.
			s.lastErr = fmt.Errorf("live: WAL rewrite after compaction: %w", err)
		} else {
			s.lastErr = nil
		}
	} else {
		s.lastErr = nil
	}
	return CompactResult{
		Retired:       retired,
		ResidualAdds:  len(newAdds),
		ResidualTombs: len(newTombs),
	}
}
