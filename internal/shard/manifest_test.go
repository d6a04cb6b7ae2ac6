package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/snap"
	"kgexplore/internal/testkit"
)

func writeFixtureSet(t *testing.T, g *rdf.Graph, k int) (string, Manifest) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "set"+ManifestSuffix)
	s := buildSet(t, g, k)
	m, err := WriteSet(path, s, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	return path, m
}

func TestManifestRoundtrip(t *testing.T) {
	g := testkit.RandomGraph(19, 30, 3, 25, 400)
	q := testkit.ChainQuery(g, []rdf.ID{30, 31}, true, false)
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	want := exactOf(t, buildSet(t, g, 4), pl)

	path, m := writeFixtureSet(t, g, 4)
	if m.Shards != 4 || len(m.Files) != 4 || m.Partitioner != DefaultPartitioner {
		t.Fatalf("unexpected manifest: %+v", m)
	}
	for _, mmap := range []bool{false, true} {
		s, err := Load(path, LoadOptions{Mmap: mmap})
		if err != nil {
			t.Fatalf("mmap=%v: %v", mmap, err)
		}
		if s.K() != 4 || s.NumTriples() != g.Len() {
			t.Fatalf("mmap=%v: loaded %d shards / %d triples", mmap, s.K(), s.NumTriples())
		}
		got := exactOf(t, s, pl)
		if !testkit.MapsEqual(got, want, 1e-9) {
			t.Fatalf("mmap=%v: loaded set disagrees with built set", mmap)
		}
		s.Close()
	}
	if _, err := Verify(path); err != nil {
		t.Fatalf("Verify rejected a pristine set: %v", err)
	}
}

// rewriteManifest loads the manifest JSON, applies fn, and writes it back
// verbatim (no hash recomputation) — simulating a hand-edit.
func rewriteManifest(t *testing.T, path string, fn func(m map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestCorruption feeds Load/Verify a catalogue of damaged shard
// sets. Every case must be rejected outright — no partial set may survive.
func TestManifestCorruption(t *testing.T) {
	g := testkit.RandomGraph(29, 30, 3, 25, 300)

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		wantSub string
	}{
		{
			name: "truncated manifest JSON",
			corrupt: func(t *testing.T, path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "wrong shard count",
			corrupt: func(t *testing.T, path string) {
				rewriteManifest(t, path, func(m map[string]any) { m["shards"] = float64(2) })
			},
			// Rejected by the files/shard-count cross-check, which fires
			// before the config hash comparison.
			wantSub: "files",
		},
		{
			name: "tampered partitioner name",
			corrupt: func(t *testing.T, path string) {
				rewriteManifest(t, path, func(m map[string]any) { m["partitioner"] = PartitionerSubjectMod })
			},
			wantSub: "hash",
		},
		{
			name: "unknown partitioner",
			corrupt: func(t *testing.T, path string) {
				rewriteManifest(t, path, func(m map[string]any) { m["partitioner"] = "subject-xxh/v9" })
			},
			wantSub: "partitioner",
		},
		{
			name: "file list shorter than shard count",
			corrupt: func(t *testing.T, path string) {
				rewriteManifest(t, path, func(m map[string]any) {
					files := m["files"].([]any)
					m["files"] = files[:len(files)-1]
				})
			},
			wantSub: "files",
		},
		{
			name: "path escaping the manifest directory",
			corrupt: func(t *testing.T, path string) {
				rewriteManifest(t, path, func(m map[string]any) {
					files := m["files"].([]any)
					f := files[0].(map[string]any)
					f["path"] = "../shard-0000.kgs"
				})
			},
			wantSub: "escapes",
		},
		{
			name: "deleted shard file",
			corrupt: func(t *testing.T, path string) {
				if err := os.Remove(filepath.Join(filepath.Dir(path), "shard-0002.kgs")); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "truncated shard snapshot",
			corrupt: func(t *testing.T, path string) {
				p := filepath.Join(filepath.Dir(path), "shard-0001.kgs")
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, data[:len(data)-64], 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "corrupted summary section in a shard",
			corrupt: func(t *testing.T, path string) {
				p := filepath.Join(filepath.Dir(path), "shard-0001.kgs")
				in, err := snap.Inspect(p)
				if err != nil {
					t.Fatal(err)
				}
				sec, ok := in.Section("summary")
				if !ok {
					t.Fatal("shard snapshot has no summary section")
				}
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				data[sec.Off+sec.Size/2] ^= 0x20
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSub: "summary",
		},
		{
			name: "triple count mismatch",
			corrupt: func(t *testing.T, path string) {
				rewriteManifest(t, path, func(m map[string]any) {
					files := m["files"].([]any)
					f := files[1].(map[string]any)
					f["triples"] = f["triples"].(float64) + 7
				})
			},
			wantSub: "triples",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, _ := writeFixtureSet(t, g, 4)
			tc.corrupt(t, path)
			if _, err := Load(path, LoadOptions{}); err == nil {
				t.Fatal("Load accepted a corrupted set")
			} else if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Load error %q does not mention %q", err, tc.wantSub)
			}
			if _, err := Verify(path); err == nil {
				t.Fatal("Verify accepted a corrupted set")
			}
		})
	}
}

// TestVerifyCatchesMisplacedTriples covers the one corruption Load cannot
// see: a set written under one partitioner but served under another, with
// the config hash "helpfully" recomputed. Only Verify's placement scan
// catches it.
func TestVerifyCatchesMisplacedTriples(t *testing.T) {
	g := testkit.RandomGraph(37, 30, 3, 25, 300)
	dir := t.TempDir()
	path := filepath.Join(dir, "set"+ManifestSuffix)
	part, err := PartitionerByName(PartitionerSubjectMod)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, 4, part)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSet(path, s, "fixture"); err != nil {
		t.Fatal(err)
	}
	// Relabel the set as mix32-partitioned and recompute the hash so the
	// manifest itself validates.
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Partitioner = PartitionerSubjectMix
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err != nil {
		t.Fatalf("relabelled manifest should pass shallow validation: %v", err)
	}
	if _, err := Verify(path); err == nil {
		t.Fatal("Verify accepted a set whose triples sit in the wrong shards")
	} else if !strings.Contains(err.Error(), "belongs to shard") {
		t.Fatalf("unexpected Verify error: %v", err)
	}
}

// TestManifestWorkersPlacement pins the worker-placement field: a valid
// per-shard address list round-trips, a wrong-length or empty-address list
// fails validation, and the addresses stay OUT of the config hash so
// re-pointing a set at new workers never invalidates the snapshots.
func TestManifestWorkersPlacement(t *testing.T) {
	g := testkit.RandomGraph(37, 20, 3, 15, 200)
	path, _ := writeFixtureSet(t, g, 2)
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	hash := m.ConfigHash

	m.Workers = []string{"10.0.0.1:7070", "10.0.0.2:7070"}
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Workers) != 2 || got.Workers[1] != "10.0.0.2:7070" {
		t.Fatalf("workers did not round-trip: %v", got.Workers)
	}
	if got.ConfigHash != hash {
		t.Fatalf("adding workers changed the config hash %08x -> %08x", hash, got.ConfigHash)
	}
	if _, err := Load(path, LoadOptions{}); err != nil {
		t.Fatalf("set with workers failed to load: %v", err)
	}

	m.Workers = []string{"only-one:7070"}
	if err := WriteManifest(path, m); err == nil {
		t.Fatal("accepted 1 worker address for 2 shards")
	}
	m.Workers = []string{"a:1", ""}
	if err := WriteManifest(path, m); err == nil {
		t.Fatal("accepted an empty worker address")
	}
}
