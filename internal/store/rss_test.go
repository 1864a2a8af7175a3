//go:build linux

package store

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/pkg/domain"
)

// TestPointLookupRSS is the larger-than-RAM serving gate: a point-
// lookup workload over an mmap-opened corpus must keep its steady-state
// resident set at or below half the file size — the pages it faults in
// are the ones it touches, not the whole corpus. The measurement runs
// in a re-exec'ed child process (a fresh address space, so the parent's
// corpus construction doesn't pollute the number): the child opens the
// file mapped, drops the residency left behind by the open-time
// checksum with DropResident, performs 64 spread-out point lookups, and
// reports VmRSS from /proc/self/status.
//
// The test is opt-in (it builds a multi-megabyte corpus): set
// STORE_RSS=1 to run it, STORE_RSS_MB to size the corpus (default 64),
// and STORE_RSS_GATE=1 to fail on ratio > 0.5 instead of just
// reporting. scripts/bench_store.sh drives it and records the ratio in
// BENCH_store.json.
func TestPointLookupRSS(t *testing.T) {
	if os.Getenv("STORE_RSS_CHILD") == "1" {
		rssChild(t)
		return
	}
	if os.Getenv("STORE_RSS") == "" {
		t.Skip("set STORE_RSS=1 to run the RSS benchmark (see scripts/bench_store.sh)")
	}
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	targetMB := 64
	if s := os.Getenv("STORE_RSS_MB"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad STORE_RSS_MB %q", s)
		}
		targetMB = n
	}

	path := filepath.Join(t.TempDir(), "corpus.v2")
	if err := SaveFormat(buildRSSCorpus(t, targetMB<<20), path, "v2"); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestPointLookupRSS$", "-test.v")
	cmd.Env = append(os.Environ(), "STORE_RSS_CHILD=1", "STORE_RSS_FILE="+path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child failed: %v\n%s", err, out)
	}
	var rss int64 = -1
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, "child-rss-bytes="); ok {
			if rss, err = strconv.ParseInt(v, 10, 64); err != nil {
				t.Fatalf("bad child report %q", line)
			}
		}
		if msg, ok := strings.CutPrefix(line, "child-error="); ok {
			t.Fatalf("child: %s", msg)
		}
	}
	if rss < 0 {
		t.Fatalf("child reported no RSS:\n%s", out)
	}

	ratio := float64(rss) / float64(fi.Size())
	// Parsed by scripts/bench_store.sh; keep the format stable.
	t.Logf("rss-result file_bytes=%d rss_bytes=%d ratio=%.4f", fi.Size(), rss, ratio)
	if os.Getenv("STORE_RSS_GATE") != "" && ratio > 0.5 {
		t.Errorf("point-lookup RSS is %.1f%% of the file size, gate is 50%%", ratio*100)
	}
}

// buildRSSCorpus grows the seed corpus to at least targetBytes of
// encoded v2 by replicating every document with per-replica perturbed
// strings (the string table dedups identical strings, so verbatim
// copies would add almost nothing).
func buildRSSCorpus(t *testing.T, targetBytes int) *domain.Database {
	t.Helper()
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EncodeV2(gt.DB, V2Options{Postings: true, Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	replicas := targetBytes/len(base) + 1

	db := domain.NewDatabase(domain.BaseScheme())
	db.Scheme = gt.DB.Scheme
	docs := gt.DB.Documents()
	for k := 0; k < replicas; k++ {
		for _, d := range docs {
			suffix := fmt.Sprintf(" r%d", k)
			dc := *d
			dc.Key = d.Key + "-r" + strconv.Itoa(k)
			dc.Order = d.Order + k*len(docs)
			dc.Errata = make([]*domain.Erratum, len(d.Errata))
			for i, e := range d.Errata {
				ec := *e
				ec.DocKey = dc.Key
				ec.Title = e.Title + suffix
				ec.Description = e.Description + suffix
				ec.Implication = e.Implication + suffix
				ec.Workaround = e.Workaround + suffix
				if e.Key != "" {
					ec.Key = e.Key + "-r" + strconv.Itoa(k)
				}
				dc.Errata[i] = &ec
			}
			if err := db.Add(&dc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

// rssChild is the measured half of TestPointLookupRSS: it runs in a
// fresh process so the resident set is the workload's, not the
// harness's. Failures are reported on stdout (child-error=...) because
// the parent only reads output.
func rssChild(t *testing.T) {
	path := os.Getenv("STORE_RSS_FILE")
	r, err := Open(path)
	if err != nil {
		fmt.Printf("child-error=open: %v\n", err)
		return
	}
	sv, ok := r.(*StoreV2)
	if !ok || !sv.Mapped() {
		fmt.Println("child-error=corpus did not open mapped")
		return
	}
	defer sv.Close()

	// Ordinal ranges per document, read once (the doc section is tiny
	// compared to the record and string sections).
	type docSpan struct {
		key    string
		off, n int
	}
	spans := make([]docSpan, sv.NumDocs())
	for i := range spans {
		off, n := sv.DocErrataRange(i)
		spans[i] = docSpan{key: sv.Doc(i).Key, off: off, n: n}
	}

	// The open-time checksum touched every page; drop that residency so
	// VmRSS reflects only what the lookups fault back in.
	if err := sv.Region().DropResident(); err != nil {
		fmt.Printf("child-error=madvise: %v\n", err)
		return
	}

	const lookups = 64
	total := sv.Size()
	var sink int
	for i := 0; i < lookups; i++ {
		ord := i * (total - 1) / (lookups - 1)
		for _, s := range spans {
			if ord >= s.off && ord < s.off+s.n {
				e := sv.Erratum(ord, s.key)
				sink += len(e.Description)
				break
			}
		}
	}
	if sink == 0 {
		fmt.Println("child-error=lookups decoded nothing")
		return
	}

	rss, err := readVmRSS()
	if err != nil {
		fmt.Printf("child-error=vmrss: %v\n", err)
		return
	}
	fmt.Printf("child-rss-bytes=%d\n", rss)
}

// readVmRSS parses the current resident set size from
// /proc/self/status ("VmRSS: <n> kB").
func readVmRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}
