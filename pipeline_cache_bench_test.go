package rememberr

import "testing"

// BenchmarkPipelineColdBuild is the baseline: the full seven-stage
// build with no artifact cache.
func BenchmarkPipelineColdBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineWarmFull replays every stage from a fully populated
// cache: the floor of an incremental rebuild (hash, read, decode). The
// cache lives in b.TempDir, so it is filled by an untimed cold Build
// and removed when the benchmark returns.
func BenchmarkPipelineWarmFull(b *testing.B) {
	dir := b.TempDir()
	if _, _, err := Build(WithCache(dir)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(WithCache(dir)); err != nil {
			b.Fatal(err)
		}
	}
}
