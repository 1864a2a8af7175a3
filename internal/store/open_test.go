package store

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/pkg/domain"
)

// openTestFiles saves one corpus in every on-disk shape Open must
// sniff: v1 JSON, gzipped v1, v2, gzipped v2. Returns the database and
// the four paths.
func openTestFiles(t *testing.T) (*domain.Database, map[string]string) {
	t.Helper()
	gt, err := corpus.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := map[string]string{
		"v1":    filepath.Join(dir, "db.json"),
		"v1.gz": filepath.Join(dir, "db.json.gz"),
		"v2":    filepath.Join(dir, "db.v2"),
		"v2.gz": filepath.Join(dir, "db.v2.gz"),
	}
	for _, p := range paths {
		if err := SaveFormat(gt.DB, p, ""); err != nil {
			t.Fatal(err)
		}
	}
	return gt.DB, paths
}

// mmapExpected reports whether the default Open of an uncompressed v2
// file should produce a mapping on this platform.
func mmapExpected() bool {
	return mmapSupported && (runtime.GOOS == "linux" || runtime.GOOS == "darwin")
}

func TestOpenSniffsEveryShape(t *testing.T) {
	db, paths := openTestFiles(t)
	want := db.ComputeStats()
	for shape, path := range paths {
		t.Run(shape, func(t *testing.T) {
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			wantFormat := FormatVersion
			if strings.HasPrefix(shape, "v2") {
				wantFormat = FormatVersion2
			}
			if r.Format() != wantFormat {
				t.Fatalf("Format() = %d, want %d", r.Format(), wantFormat)
			}
			wantMapped := shape == "v2" && mmapExpected()
			if r.Mapped() != wantMapped {
				t.Errorf("Mapped() = %v, want %v", r.Mapped(), wantMapped)
			}
			if r.Format() == FormatVersion2 {
				if _, ok := r.(*StoreV2); !ok {
					t.Errorf("format-2 reader is %T, want *StoreV2", r)
				}
			}
			got, err := r.Database()
			if err != nil {
				t.Fatal(err)
			}
			if gs := got.ComputeStats(); gs != want {
				t.Errorf("stats mismatch: got %+v want %+v", gs, want)
			}
		})
	}
}

// TestOpenMmapOn pins WithMmap(true) as the default: it maps exactly
// what a plain Open maps — an uncompressed v2 file where the platform
// has mmap — and reads every other shape into the heap instead of
// failing.
func TestOpenMmapOn(t *testing.T) {
	_, paths := openTestFiles(t)
	for shape, path := range paths {
		r, err := Open(path, WithMmap(true))
		if err != nil {
			t.Fatalf("Open(%s, WithMmap(true)): %v", shape, err)
		}
		want := shape == "v2" && mmapExpected()
		if r.Mapped() != want {
			t.Errorf("Open(%s, WithMmap(true)).Mapped() = %v, want %v", shape, r.Mapped(), want)
		}
		if reg := r.Region(); reg != nil && reg.Mapped() != want {
			t.Errorf("Open(%s, WithMmap(true)) region Mapped() = %v, want %v", shape, reg.Mapped(), want)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenMmapOff(t *testing.T) {
	_, paths := openTestFiles(t)
	r, err := Open(paths["v2"], WithMmap(false))
	if err != nil {
		t.Fatal(err)
	}
	if r.Mapped() {
		t.Error("WithMmap(false) reader reports Mapped")
	}
	if reg := r.Region(); reg == nil || reg.Mapped() {
		t.Errorf("heap reader region = %v, want active heap region", reg)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenBytesSniffs(t *testing.T) {
	db, paths := openTestFiles(t)
	want := db.ComputeStats()
	for _, shape := range []string{"v1", "v1.gz", "v2", "v2.gz"} {
		data, err := os.ReadFile(paths[shape])
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenBytes(data)
		if err != nil {
			t.Fatalf("OpenBytes(%s): %v", shape, err)
		}
		got, err := r.Database()
		if err != nil {
			t.Fatal(err)
		}
		if gs := got.ComputeStats(); gs != want {
			t.Errorf("OpenBytes(%s) stats mismatch", shape)
		}
		if r.Mapped() {
			t.Errorf("OpenBytes(%s) reports Mapped", shape)
		}
	}
	if _, err := OpenBytes([]byte("{")); err == nil {
		t.Error("OpenBytes(junk) succeeded, want error")
	}
}

func TestRegionLifecycleHeap(t *testing.T) {
	reg := newHeapRegion([]byte("payload"))
	if !reg.Active() || reg.Mapped() {
		t.Fatalf("fresh heap region: Active=%v Mapped=%v", reg.Active(), reg.Mapped())
	}
	if !reg.TryRetain() {
		t.Fatal("TryRetain on live region failed")
	}
	if err := reg.Release(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Release(); err != nil { // opener's reference
		t.Fatal(err)
	}
	if reg.Active() {
		t.Error("region Active after final release")
	}
	if reg.TryRetain() {
		t.Error("TryRetain succeeded on a dead region")
	}
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	reg.Release()
}

func TestRegionLifecycleMapped(t *testing.T) {
	if !mmapExpected() {
		t.Skip("no mmap on this platform")
	}
	_, paths := openTestFiles(t)
	r, err := Open(paths["v2"])
	if err != nil {
		t.Fatal(err)
	}
	sv := r.(*StoreV2)
	reg := sv.Region()
	if !reg.TryRetain() {
		t.Fatal("TryRetain on freshly opened mapping failed")
	}
	// Close drops the opener's reference; ours keeps the mapping alive.
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if !reg.Active() {
		t.Fatal("mapping died while a reference was held")
	}
	// The bytes must still be readable through the retained reference.
	if db, err := sv.Database(); err != nil || db == nil {
		t.Fatalf("Database() through retained region: %v", err)
	}
	if err := reg.DropResident(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Release(); err != nil {
		t.Fatal(err)
	}
	if reg.Active() {
		t.Error("mapping Active after last release")
	}
	if reg.TryRetain() {
		t.Error("TryRetain revived an unmapped region")
	}
}
