package kgexplore

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestLiveOverMmapSurvivesRetiredBase pins the live store's dictionary
// ownership: over an mmap-loaded base, ingest keeps interning terms after a
// compaction has retired that base and its mapping is closed.
func TestLiveOverMmapSurvivesRetiredBase(t *testing.T) {
	ds, err := GenerateDBpediaSim(0.005)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.kgs")
	if err := ds.WriteStoreSnapshotFile(base, "base"); err != nil {
		t.Fatal(err)
	}
	// Both ways a live dataset gets an mmap-loaded base: the one-call loader
	// and a snapshot dataset wrapped with Live (the kgserver -live path).
	open := map[string]func() (*LiveDataset, error){
		"LoadLiveDataset": func() (*LiveDataset, error) { return LoadLiveDataset(base, true, "", true) },
		"Live": func() (*LiveDataset, error) {
			ss, err := LoadStoreSnapshotFile(base, true)
			if err != nil {
				return nil, err
			}
			return ss.Dataset.Live(LiveOptions{Closer: ss})
		},
	}
	for name, open := range open {
		lds, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ingest := func(i int) {
			t.Helper()
			line := fmt.Sprintf(`<urn:live:s%d> <urn:live:p> "v%d" .`, i, i)
			if _, err := lds.IngestNTriples([]string{line}, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		ingest(0)
		res, err := lds.Compact(filepath.Join(t.TempDir(), "c1.kgs"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Retired.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ingest(1)
		if _, ok := lds.Dict().LookupIRI(RootThing); !ok {
			t.Fatalf("%s: base term lost from the live dictionary", name)
		}
		if got, want := lds.NumTriples(), ds.NumTriples()+2; got != want {
			t.Fatalf("%s: live triples %d, want %d", name, got, want)
		}
		lds.Close()
	}
}
