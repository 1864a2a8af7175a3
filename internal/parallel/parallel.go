// Package parallel provides the bounded fan-out primitive shared by
// the build pipeline's hot paths (document rendering and parsing,
// duplicate-candidate scoring, regex classification).
//
// The contract is strict determinism: work is identified by index,
// results are collected by index, and error propagation prefers the
// lowest failing index — so for a fixed input the outcome is
// byte-identical no matter how many workers run, and identical to the
// sequential execution. Stages whose state is order-dependent (the
// corpus generator's single RNG stream, the dedup oracle loop over
// mutable DSU state, the annotator error processes) must NOT be run
// through this package; see DESIGN.md for the stage-by-stage contract.
package parallel

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// instruments is the immutable instrument set swapped in by Instrument.
type instruments struct {
	reg        *obs.Registry
	queueDepth *obs.Gauge   // tasks submitted but not yet finished
	tasksTotal *obs.Counter // tasks completed across all batches
}

var instr atomic.Pointer[instruments]

// Instrument wires the package's instruments into reg: the
// rememberr_parallel_queue_depth gauge (tasks in flight across every
// concurrent Do), the rememberr_parallel_tasks_total counter, and the
// per-worker rememberr_parallel_worker_tasks_total counters (created
// lazily per worker slot, so the label set reflects the widest pool
// actually run). Passing nil turns instrumentation off again.
//
// The instrument set is swapped atomically, but counts recorded under
// the previous registry stay there: call Instrument once at process
// start, before pipelines run.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&instruments{
		reg: reg,
		queueDepth: reg.Gauge("rememberr_parallel_queue_depth",
			"Tasks submitted to the worker pool and not yet completed."),
		tasksTotal: reg.Counter("rememberr_parallel_tasks_total",
			"Tasks completed by the worker pool."),
	})
}

// workerCounter resolves the per-worker task counter for worker slot w.
func (in *instruments) workerCounter(w int) *obs.Counter {
	if in == nil {
		return nil
	}
	return in.reg.Counter("rememberr_parallel_worker_tasks_total",
		"Tasks completed per worker slot.", obs.L("worker", strconv.Itoa(w)))
}

// Workers resolves a Parallelism knob into a concrete worker count:
// values <= 0 select runtime.GOMAXPROCS(0), anything else is returned
// unchanged. 1 means sequential execution on the calling goroutine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs fn(i) for every i in [0, n) on at most workers goroutines
// (resolved by Workers and clamped to n). Callers communicate results
// by writing to the i-th slot of a pre-sized slice, which keeps
// collection deterministic and race-free without locks.
//
// With one worker, Do degenerates to the plain sequential loop and
// stops at the first error, exactly like the code it replaces. With
// several workers every index runs regardless of failures, and the
// error of the lowest failing index is returned — the same error the
// sequential loop would have surfaced first.
func Do(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	in := instr.Load()
	var depth *obs.Gauge
	var tasks *obs.Counter
	if in != nil {
		depth, tasks = in.queueDepth, in.tasksTotal
	}
	depth.Add(float64(n))
	if workers == 1 {
		done := 0
		defer func() {
			// The sequential path stops at the first error; account
			// only for tasks actually run, and drain the rest from the
			// queue-depth gauge.
			tasks.Add(int64(done))
			in.workerCounter(0).Add(int64(done))
			depth.Add(-float64(n))
		}()
		for i := 0; i < n; i++ {
			err := fn(i)
			done++
			if err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			done := int64(0)
			for i := range next {
				errs[i] = fn(i)
				done++
				depth.Add(-1)
			}
			tasks.Add(done)
			in.workerCounter(w).Add(done)
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) under Do and returns the
// results in index order: out[i] = fn(i). On error the first (lowest
// index) error is returned and the results are discarded.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Gather runs fn(i) for every i in [0, n) under Do, where each fn
// returns a slice of items, and concatenates the per-index slices in
// index order. This is the row-sharding primitive of the O(n^2)
// candidate-scoring loops: each row produces its matches
// independently, and the merged order equals the sequential scan's.
func Gather[T any](n, workers int, fn func(i int) []T) []T {
	rows := make([][]T, n)
	_ = Do(n, workers, func(i int) error {
		rows[i] = fn(i)
		return nil
	})
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	out := make([]T, 0, total)
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}
