package index

import (
	"testing"

	"repro/internal/corpus"
)

// TestKeyListNoAlloc pins the zero-allocation contract of the hot-path
// accessors the serving layer stitches responses with.
func TestKeyListNoAlloc(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(gt.DB)
	key := gt.DB.Unique()[0].Key
	if got := testing.AllocsPerRun(100, func() {
		ords := ix.KeyList(key)
		for i, n := 0, ords.Len(); i < n; i++ {
			_ = ix.Entry(ords.At(i))
		}
	}); got != 0 {
		t.Fatalf("KeyList/Entry allocate %v per run, want 0", got)
	}
}
