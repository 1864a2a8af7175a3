// Command e2ebench is the repository's end-to-end benchmark. It hosts
// the program in its own process through its public constructors
// (rememberr.Build, store.EncodeV2 and store.Open, serve.New's Handler
// on a 127.0.0.1 listener, ingest.NewFrom) and drives one workload
// from one keep-alive connection in a closed loop:
//
//	e2ebench --workload query-hot --seed 1 --seconds 25 --trace 0
//
// Workloads: query-hot, query-cold, ingest-mixed, build-cold (see
// README.md). With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it measures the same phase untraced and traced and prints
// the per-layer metrics, writing the spans to .bench_build/e2ebench/.
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 only
// when every correctness and layer-coverage check passed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	rememberr "repro"
	"repro/internal/store"
	_ "repro/plugins/defaults"
)

// setupReps is how many times a run sets up serving; setup_s is the
// median.
const setupReps = 21

// v2Options is the store format errserve serves from: postings and
// response fragments embedded.
var v2Options = store.V2Options{Postings: true, Fragments: true}

type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	par      int
	tr       *tracer // nil in an untraced run

	dir, path string // work directory and the v2 file the run serves
	v2        []byte
	voc       *vocab
	ref       *refCheck
	first     filter // the set-up's first request
	firstBody []byte // its reference answer

	// lastRep and lastReg are the stage tree and registry of the last
	// traced build.
	lastRep *rememberr.BuildReport
	lastReg *rememberr.Registry
}

func main() {
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	name := fs.String("workload", "", "query-hot, query-cold, ingest-mixed or build-cold")
	seed := fs.Int64("seed", 1, "seed of the corpus and of the generated requests")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	fs.Parse(os.Args[1:])
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload query-hot|query-cold|ingest-mixed|build-cold --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, par: runtime.NumCPU()}
	if *traced == 1 {
		b.tr = newTracer()
		b.tr.on.Store(true)
	}
	res, err := b.run(mk())
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure. n is its sample count, printed in the
// table but not part of the JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	header string
	info   map[string]metric // printed, never gated
	checks []string
}

func (r *result) check(ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAILED"
		r.Correct = false
	}
	r.checks = append(r.checks, fmt.Sprintf("check %s: %s", fmt.Sprintf(format, args...), status))
}

func (r *result) print(w io.Writer) {
	fmt.Fprintln(w, r.header)
	for _, group := range []struct {
		label string
		m     map[string]metric
	}{{"metric", r.Metrics}, {"info", r.info}} {
		names := make([]string, 0, len(group.m))
		for k := range group.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := group.m[k]
			fmt.Fprintf(w, "%s %-28s %14.6g %-6s samples %d%s\n", group.label, k, m.Value, m.Unit, m.n, m.note)
		}
	}
	for _, c := range r.checks {
		fmt.Fprintln(w, c)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	for k, m := range r.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// A failed op is an infinite latency; JSON has no infinity.
			m.Value = 1e12
			r.Metrics[k] = m
		}
	}
	line, _ := json.Marshal(r)
	fmt.Fprintln(w, string(line))
}

// build runs one cold rememberr.Build at the run's seed. In a traced
// phase it also records the build's stage tree and counters.
func (b *bench) build(parent int) (*rememberr.Database, *rememberr.BuildReport, error) {
	opts := []rememberr.Option{rememberr.WithSeed(b.seed), rememberr.WithParallelism(b.par)}
	var reg *rememberr.Registry
	if b.tr != nil && b.tr.on.Load() {
		reg = rememberr.NewRegistry()
		opts = append(opts, rememberr.WithObservability(reg))
	}
	t0 := time.Now()
	sp := b.tr.begin("build", parent)
	db, rep, err := rememberr.Build(opts...)
	b.tr.end(sp)
	if err == nil && sp >= 0 {
		b.tr.recordStages(sp, rep.Trace, t0)
		b.lastRep, b.lastReg = rep, reg
	}
	return db, rep, err
}

// checkBuild compares a build's counts with the generator's ground
// truth.
func checkBuild(db *rememberr.Database, rep *rememberr.BuildReport) error {
	got, want := db.Stats(), rep.GroundTruth.DB.ComputeStats()
	if got.Total != want.Total || got.Unique != want.Unique || got.Documents != want.Documents {
		return fmt.Errorf("built %d errata, %d unique, %d documents; ground truth %d, %d, %d",
			got.Total, got.Unique, got.Documents, want.Total, want.Unique, want.Documents)
	}
	return nil
}

// firstAnswer sends the set-up's first request and compares the answer
// with the reference.
func (b *bench) firstAnswer(h *host, parent int) error {
	sp := b.tr.begin("client.first_get", parent)
	status, body, err := h.cl.get(b.first.url(), sp)
	b.tr.end(sp)
	switch {
	case err != nil:
		return err
	case status != 200 || !bytes.Equal(body, b.firstBody):
		return fmt.Errorf("first answer to %s: status %d, body differs from the reference", b.first.url(), status)
	}
	return nil
}

// setup generates the inputs and brings serving up to the first
// verified answer, setupReps times; it returns the last host and the
// set-up times.
func (b *bench) setup(w workload) (*host, []float64, error) {
	var times []float64
	var h *host
	for i := 0; i < setupReps; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, nil, err
			}
		}
		root := b.tr.begin("setup", -1)
		t0 := time.Now()
		sp := b.tr.begin("inputs.generate", root)
		err := w.inputs(b)
		b.tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		if h, err = openHost(b.path, b.par, b.tr, root); err != nil {
			return nil, nil, err
		}
		if err := b.firstAnswer(h, root); err != nil {
			h.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		b.tr.end(root)
	}
	return h, times, nil
}

// measure replays whole passes until the run's length has elapsed.
func (b *bench) measure(w workload, h *host) (*phase, time.Duration) {
	ph := &phase{}
	start := time.Now()
	c0 := cpuTime()
	for time.Since(start) < b.seconds {
		w.pass(b, h, ph)
	}
	ph.cpu = cpuTime() - c0
	return ph, time.Since(start)
}

func (b *bench) run(w workload) (*result, error) {
	b.dir = filepath.Join(".bench_build", "e2ebench")
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	tPrep := time.Now()
	if err := b.prep(); err != nil {
		return nil, err
	}
	defer os.Remove(b.path)
	prepS := time.Since(tPrep).Seconds()

	h, setupTimes, err := b.setup(w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer h.close()

	// A traced run records set-up and the traced phase; warm-up and the
	// untraced phase it is compared with run with tracing off.
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	warm := &phase{}
	w.warmup(b, h, warm)
	ph, elapsed := b.measure(w, h)
	rss := rssMB()
	phases := []*phase{warm, ph}
	var tph *phase
	if b.tr != nil {
		b.tr.on.Store(true)
		tph, _ = b.measure(w, h)
		phases = append(phases, tph)
	}

	res := &result{
		Correct: true,
		Metrics: map[string]metric{},
		info:    map[string]metric{},
		header: fmt.Sprintf("e2ebench workload=%s seed=%d seconds=%d trace=%v nproc=%d",
			b.workload, b.seed, int(b.seconds.Seconds()), b.tr != nil, b.par),
	}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, f := range p.failures {
			fmt.Fprintln(os.Stderr, "e2ebench: failed op:", f)
		}
	}
	res.check(res.Failed == 0, "%d of %d ops failed", res.Failed, res.Attempted)
	if n, err := b.ref.verify(); n > 0 || err != nil {
		res.check(err == nil, "%d distinct responses equal the reference server's (%v)", n, err)
	}
	b.coverage(res, warm, ph)

	e2e := res.Metrics
	if b.tr != nil {
		e2e = res.info
	}
	done := 0
	for _, l := range ph.lat {
		if !math.IsInf(l, 1) {
			done++
		}
	}
	e2e["setup_s"] = metric{Value: median(setupTimes), Unit: "s", n: len(setupTimes)}
	e2e["rss_mb"] = metric{Value: rss, Unit: "MB", n: 1}
	e2e["op_p50_ms"] = latencyInfo(ph.lat, 50)
	e2e["op_p90_ms"] = latencyInfo(ph.lat, 90)
	e2e["cpu_ms_per_op"] = metric{Value: ms(ph.cpu.Nanoseconds()) / float64(done), Unit: "ms", n: done}
	res.info["ops_per_s"] = metric{Value: float64(done) / elapsed.Seconds(), Unit: "1/s", n: done}
	res.info["prep_s"] = metric{Value: prepS, Unit: "s", n: 1, note: " (build, encode and reference server, before set-up)"}
	res.info["op_p99_ms"] = latencyInfo(ph.lat, 99)
	if len(ph.reads) > 0 {
		res.info["read_p50_ms"] = latencyInfo(ph.reads, 50)
		res.info["read_p90_ms"] = latencyInfo(ph.reads, 90)
	}
	if len(ph.buildMS) > 0 {
		res.info["build_s"] = metric{Value: median(ph.buildMS) / 1000, Unit: "s", n: len(ph.buildMS), note: " (median Build plus EncodeV2)"}
		res.info["cold_open_ms"] = metric{Value: median(ph.openMS), Unit: "ms", n: len(ph.openMS), note: " (median store.Open to first answer)"}
	}
	if b.tr != nil {
		if res.Metrics, err = b.perLayer(w, h, ph, tph); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// prep builds the database the run serves, writes its v2 file and
// starts the reference server.
func (b *bench) prep() error {
	db, rep, err := b.build(-1)
	if err != nil {
		return err
	}
	if err := checkBuild(db, rep); err != nil {
		return err
	}
	sp := b.tr.begin("store.encode_v2", -1)
	b.v2, err = store.EncodeV2(db.Core(), v2Options)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	b.path = filepath.Join(b.dir, fmt.Sprintf("%s-%d.v2", b.workload, os.Getpid()))
	if err := os.WriteFile(b.path, b.v2, 0o644); err != nil {
		return err
	}
	b.voc = newVocab(db.Core())
	if len(b.voc.words) == 0 || len(b.voc.keys) == 0 {
		return errors.New("corpus has no title words or keys to query")
	}
	if b.ref, err = newRefCheck(db.Core()); err != nil {
		return err
	}
	b.first = filter{title: b.voc.words[len(b.voc.words)/2], limit: 20}
	code, body := b.ref.reference(b.first.url())
	if code != 200 {
		return fmt.Errorf("reference answered %d to %s", code, b.first.url())
	}
	b.firstBody = bytes.Clone(body)
	return nil
}

// coverage fails the run when a workload stops using the layer it
// exists for.
func (b *bench) coverage(res *result, warm, ph *phase) {
	ratio := hitRatio(ph)
	switch b.workload {
	case "query-hot":
		res.check(ratio >= 0.9, "query-hot cache hit ratio after the first pass %.4f >= 0.9", ratio)
	case "query-cold":
		res.check(ratio <= 0.05, "query-cold cache hit ratio %.4f <= 0.05", ratio)
	case "ingest-mixed":
		res.check(ph.failed == 0 && len(ph.lat) > 0, "ingest-mixed applied every POST (none skipped): %d POSTs", len(ph.lat))
	case "build-cold":
		d, t := warm.dedupNS+ph.dedupNS, warm.buildNS+ph.buildNS
		share := float64(d) / float64(max(t, 1))
		res.check(share >= 0.75, "build-cold dedup share of the build span %.3f >= 0.75", share)
	}
}

func hitRatio(ph *phase) float64 {
	if ph.cacheHits+ph.cacheMisses == 0 {
		return 0
	}
	return float64(ph.cacheHits) / float64(ph.cacheHits+ph.cacheMisses)
}

// latencyInfo is a latency percentile with its sample count and the
// number of samples beyond it.
func latencyInfo(lat []float64, p float64) metric {
	xs := append([]float64(nil), lat...)
	return metric{Value: percentile(xs, p), Unit: "ms", n: len(xs), note: fmt.Sprintf(", %d beyond", beyond(xs, p))}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB returns VmRSS after a forced garbage collection.
func rssMB() float64 {
	debug.FreeOSMemory()
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
