package testsuite

import (
	"os"
	"testing"

	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/turtle"
)

// TestConformanceDisk runs the whole conformance corpus with every data
// file loaded through the disk backend — same goldens, engine and
// reference — then reopens each store from its on-disk files and runs the
// corpus again, so a restart provably serves identical results.
func TestConformanceDisk(t *testing.T) {
	// Data dirs and store lifetimes are owned by the enclosing test:
	// the suite shares one store across cases, and the reopened phase
	// needs the fresh phase's directories to outlive its subtests.
	dirs := map[string]string{}
	closeLater := func(ds *disk.Store) { t.Cleanup(func() { ds.Close() }) }

	t.Run("fresh", func(st *testing.T) {
		RunDirBackend(st, "testdata", false, func(ct *testing.T, path string) store.Queryable {
			raw, err := os.ReadFile(path)
			if err != nil {
				ct.Fatal(err)
			}
			g, err := turtle.Parse(string(raw))
			if err != nil {
				ct.Fatalf("%s: %v", path, err)
			}
			dir := t.TempDir()
			dirs[path] = dir
			ds, err := disk.Open(dir, disk.Options{})
			if err != nil {
				ct.Fatal(err)
			}
			closeLater(ds)
			for _, tr := range g.Triples() {
				if _, err := ds.Insert(tr); err != nil {
					ct.Fatal(err)
				}
			}
			if err := ds.Flush(); err != nil {
				ct.Fatal(err)
			}
			return ds
		})
	})

	t.Run("reopened", func(st *testing.T) {
		RunDirBackend(st, "testdata", false, func(ct *testing.T, path string) store.Queryable {
			dir, ok := dirs[path]
			if !ok {
				ct.Fatalf("no populated data dir for %s", path)
			}
			ds, err := disk.Open(dir, disk.Options{})
			if err != nil {
				ct.Fatal(err)
			}
			closeLater(ds)
			return ds
		})
	})
}
