package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/olden"
)

// The batch runner executes independent simulations concurrently on a
// bounded worker pool.  Each Run builds a fresh mem.Image, heap, cache
// hierarchy and core, so runs share no mutable state; the runner
// exploits that to use every host core while keeping results in
// deterministic input order.  Experiment drivers declare their spec
// sets up front and assemble reports from the ordered batch results,
// which makes report text independent of worker count (see
// TestParallelSerialIdenticalReports).

// RunItem is one slot of a batch result: the run outcome, or the error
// that spec produced.  A failed spec does not abort the batch; the
// other slots are still filled.
//
// A batch keeps statistics, not machines: the slot's Result.Hier, Heap
// and PrefEngine are cleared as soon as its run finishes, so an
// experiment holds at most one simulated machine per worker.  The
// snapshot and the CPU, cache, instruction, predictor and engine
// counters survive; they are values Run has already built.  Callers
// that need the machine use Run or RunGuarded.
type RunItem struct {
	Result Result
	Err    error
}

// DecompItem is one slot of a decomposition batch result.
type DecompItem struct {
	Decomp Decomposition
	Err    error
}

// ErrDeadline marks a run abandoned for exceeding its Spec.Timeout.
// Batch slots wrap it, so callers test with errors.Is.
var ErrDeadline = errors.New("run deadline exceeded")

// runRecover executes Run, converting a panicking simulation — a
// kernel bug, a wedged configuration tripping an internal invariant —
// into an ordinary error so one bad configuration cannot take down a
// whole batch.
func runRecover(spec Spec) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: run %s/%v panicked: %v\n%s",
				spec.Bench, spec.Params.Scheme, r, debug.Stack())
		}
	}()
	return Run(spec)
}

// outcome is a finished guarded run: the result, or the error its
// panic/failure was converted to.
type outcome struct {
	res Result
	err error
}

// RunGuarded is the fault-isolated Run used by the batch runner and the
// validation driver: panics become errors, and when spec.Timeout is set
// a wedged run is abandoned after the deadline and reported as
// ErrDeadline.  An abandoned run's goroutine keeps simulating in the
// background until it finishes on its own; callers that need a hard
// stop should also set CPU.MaxCycles.
func RunGuarded(spec Spec) (Result, error) {
	if spec.Timeout <= 0 {
		return runRecover(spec)
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := runRecover(spec)
		ch <- outcome{res, err}
	}()
	timer := time.NewTimer(spec.Timeout)
	defer timer.Stop()
	return awaitRun(spec, ch, timer.C)
}

// awaitRun settles a guarded run against its deadline.  When both the
// run's own outcome and the expired timer are ready — a run (or a
// recovered panic) landing in the same scheduling window as its
// deadline — a bare select would pick at random and could misreport
// the actual outcome as ErrDeadline, hiding a real result or masking a
// kernel panic behind a generic deadline error.  The deadline arm
// therefore re-checks the outcome channel and only reports ErrDeadline
// when the run truly has not finished.
func awaitRun(spec Spec, ch <-chan outcome, deadline <-chan time.Time) (Result, error) {
	select {
	case o := <-ch:
		return o.res, o.err
	case <-deadline:
		select {
		case o := <-ch:
			return o.res, o.err
		default:
		}
		return Result{}, fmt.Errorf("harness: run %s/%v exceeded %v: %w",
			spec.Bench, spec.Params.Scheme, spec.Timeout, ErrDeadline)
	}
}

// normWorkers resolves a worker-count request: values <= 0 select
// GOMAXPROCS, and the pool never exceeds the number of jobs.
func normWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runSlot runs one batch slot through RunGuarded and keeps only its
// statistics (see RunItem).
func runSlot(spec Spec) RunItem {
	res, err := RunGuarded(spec)
	res.Hier, res.Heap, res.PrefEngine = nil, nil, nil
	return RunItem{Result: res, Err: err}
}

// RunBatch executes every spec and returns the results in input order.
// At most workers simulations run concurrently (workers <= 0 selects
// GOMAXPROCS).  Every slot is fault-isolated through RunGuarded:
// errors, panics and deadline overruns are captured per slot rather
// than aborting the batch (or, for panics, the whole process).  Slots
// hold statistics only (see RunItem).
func RunBatch(specs []Spec, workers int) []RunItem {
	out := make([]RunItem, len(specs))
	if len(specs) == 0 {
		return out
	}
	workers = normWorkers(workers, len(specs))
	if workers == 1 {
		for i, s := range specs {
			out[i] = runSlot(s)
		}
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = runSlot(specs[i])
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// DecomposeBatch runs the compute/memory-stall decomposition of every
// spec and returns the results in input order.  Each decomposition's
// two passes (realistic and perfect data memory) are independent
// simulations, so the batch flattens them into a single run pool,
// giving the worker pool up to twice the parallelism of the spec list
// without oversubscribing the host.  A spec that already requests
// perfect data memory contributes a single run (its own compute pass),
// and specs whose perfect passes are the same simulation (see
// perfectPassKey) share one.  Items hold statistics only (see
// Decomposition.Full).
func DecomposeBatch(specs []Spec, workers int) []DecompItem {
	out := make([]DecompItem, len(specs))
	flat, fullAt, perfectAt := decompPlan(specs)
	runs := RunBatch(flat, workers)
	for i := range specs {
		full, perfect := runs[fullAt[i]], runs[perfectAt[i]]
		if full.Err != nil {
			out[i].Err = full.Err
			continue
		}
		if perfect.Err != nil {
			out[i].Err = perfect.Err
			continue
		}
		out[i].Decomp = Decomposition{
			Total:   full.Result.CPU.Cycles,
			Compute: perfect.Result.CPU.Cycles,
			Full:    full.Result,
		}
	}
	return out
}

// decompPlan flattens specs into DecomposeBatch's run pool.  fullAt[i]
// and perfectAt[i] are the pool indices of spec i's realistic and
// perfect passes; they coincide for a perfect spec, and specs with the
// same perfectPassKey share one perfect pass.
func decompPlan(specs []Spec) (flat []Spec, fullAt, perfectAt []int) {
	flat = make([]Spec, 0, 2*len(specs))
	fullAt = make([]int, len(specs))
	perfectAt = make([]int, len(specs))
	shared := make(map[perfectKey]int)
	for i, s := range specs {
		fullAt[i] = len(flat)
		flat = append(flat, s)
		if s.Mem != nil && s.Mem.PerfectData {
			perfectAt[i] = fullAt[i]
			continue
		}
		p := perfectSpec(s)
		if key, ok := perfectPassKey(p); ok {
			if at, seen := shared[key]; seen {
				perfectAt[i] = at
				continue
			}
			shared[key] = len(flat)
		}
		perfectAt[i] = len(flat)
		flat = append(flat, p)
	}
	return flat, fullAt, perfectAt
}

// perfectKey identifies a perfect-data-memory pass up to the fields
// that cannot change it.
type perfectKey struct {
	bench   string
	params  olden.Params
	mem     cache.Params
	timeout time.Duration
}

// perfectPassKey returns the sharing key of the perfect pass p, or
// false when p must run on its own.  No engine attaches to a
// perfect-data run, so Engine, DBP and HW cannot affect it, and kernels
// read the scheme only through Scheme.UsesSoftwareIdiom and the
// cooperative test.  So under none, dbp and hw the compute pass is one
// simulation whatever the scheme or engine.  The interval stays in the
// key, resolved (0 selects core.DefaultInterval), because a workload
// may use it structurally: quicklist's skip distance.
// TestPerfectPassIgnoresHardwareScheme pins both rules over every
// registered workload.  A custom Kernel, a CPU override (a tracer, an
// injected fault) or a sampled run is never shared.
func perfectPassKey(p Spec) (perfectKey, bool) {
	if p.Kernel != nil || p.CPU != nil || p.Sampling != nil || p.Params.Scheme.UsesSoftwareIdiom() {
		return perfectKey{}, false
	}
	k := perfectKey{bench: p.Bench, params: p.Params, mem: *p.Mem, timeout: p.Timeout}
	k.params.Scheme = core.SchemeNone
	if k.params.Interval <= 0 {
		k.params.Interval = core.DefaultInterval
	}
	return k, true
}

// firstErr returns the first captured error of a batch, preserving the
// fail-fast contract of the experiment drivers.
func firstErr(items []RunItem) error {
	for _, it := range items {
		if it.Err != nil {
			return it.Err
		}
	}
	return nil
}

// firstDecompErr is firstErr for decomposition batches.
func firstDecompErr(items []DecompItem) error {
	for _, it := range items {
		if it.Err != nil {
			return it.Err
		}
	}
	return nil
}
