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
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/olden"
)

// The batch runner executes independent simulations concurrently on a
// bounded worker pool.  Each Run builds a fresh mem.Image, heap, cache
// hierarchy and core, so runs share no mutable state; the runner
// exploits that to use every host core while keeping results in
// deterministic input order.  A decomposition job shares one image and
// heap between its two passes only, in strict handoff (runPair).
// Experiment drivers declare their spec sets up front and assemble
// reports from the ordered batch results, which makes report text
// independent of worker count (see TestParallelSerialIdenticalReports).

// RunItem is one slot of a batch result: the run outcome, or the error
// that spec produced.  A failed spec does not abort the batch; the
// other slots are still filled.
//
// A batch keeps statistics, not machines: the slot's Result.Hier, Heap
// and PrefEngine are cleared as soon as its run finishes, so an
// experiment holds at most one job's machines per worker: one memory
// image and heap, with one core and hierarchy per pass.  The
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

// runRecover executes run (Run(spec), or one pass of a paired job),
// converting a panicking simulation — a kernel bug, a wedged
// configuration tripping an internal invariant — into an ordinary error
// so one bad configuration cannot take down a whole batch.
func runRecover(spec Spec, run func() (Result, error)) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: run %s/%v panicked: %v\n%s",
				spec.Bench, spec.Params.Scheme, r, debug.Stack())
		}
	}()
	return run()
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
	run := func() (Result, error) { return Run(spec) }
	if spec.Timeout <= 0 {
		return runRecover(spec, run)
	}
	timer := time.NewTimer(spec.Timeout)
	defer timer.Stop()
	return awaitRun(spec, startGuarded(spec, run), timer.C)
}

// startGuarded runs run through runRecover on a goroutine of its own
// and returns the channel its outcome arrives on.
func startGuarded(spec Spec, run func() (Result, error)) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		res, err := runRecover(spec, run)
		ch <- outcome{res, err}
	}()
	return ch
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

// forEach calls do(i) for every i in [0, n), on at most workers
// goroutines (workers <= 0 selects GOMAXPROCS).
func forEach(n, workers int, do func(i int)) {
	workers = normWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// slot keeps only the statistics of a finished run (see RunItem).
func slot(res Result, err error) RunItem {
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
	forEach(len(specs), workers, func(i int) {
		out[i] = slot(RunGuarded(specs[i]))
	})
	return out
}

// DecomposeBatch runs the compute/memory-stall decomposition of every
// spec and returns the results in input order.  A spec's realistic pass
// and its perfect-data pass simulate the same instruction stream, so
// they run as one job (runPair): one kernel execution feeds both
// machines, and a job occupies one worker.  A spec that already
// requests perfect data memory contributes a single run (its own
// compute pass), and specs whose perfect passes are the same
// simulation (see perfectPassKey) share one, which rides the stream of
// the first spec that needs it.  Items hold statistics only (see
// Decomposition.Full).
func DecomposeBatch(specs []Spec, workers int) []DecompItem {
	out := make([]DecompItem, len(specs))
	passes, jobs, fullAt, perfectAt := decompPlan(specs)
	runs := make([]RunItem, len(passes))
	forEach(len(jobs), workers, func(j int) {
		job := jobs[j]
		if job.perfect < 0 {
			runs[job.full] = slot(RunGuarded(passes[job.full]))
			return
		}
		runs[job.full], runs[job.perfect] = runPair(passes[job.full], passes[job.perfect])
	})
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

// runPair runs a realistic pass and its perfect-data pass (perfect is
// perfectSpec(full)) over one kernel execution: one image, heap and
// ir.NewGenShared stream feed the two machines, in strict handoff.  The
// results equal two RunGuarded calls.  The cores never read the image,
// no engine attaches to the perfect pass, and the realistic pass's
// engine sees the image at its solo batch boundaries.  Each pass is
// fault-isolated: a failing core detaches from the stream and the other
// pass runs on, while a kernel panic fails both.  Spec.Timeout bounds
// the job, both passes together.
func runPair(full, perfect Spec) (RunItem, RunItem) {
	kernel, err := full.kernel()
	if err != nil {
		return RunItem{Err: err}, RunItem{Err: err}
	}
	alloc := heap.New(mem.NewImage())
	var machines [2]*machine
	_, err = runRecover(full, func() (Result, error) {
		var err error
		for i, s := range []Spec{full, perfect} {
			if machines[i], err = newMachine(s, alloc); err != nil {
				break
			}
		}
		return Result{}, err
	})
	if err != nil {
		// The perfect pass may serve other specs (perfectPassKey):
		// let each pass succeed or fail on its own.
		return slot(RunGuarded(full)), slot(RunGuarded(perfect))
	}
	gens := ir.NewGenShared(alloc, kernel, machines[0].gen, 2)
	var deadline chan time.Time
	if full.Timeout > 0 {
		deadline = make(chan time.Time)
		timer := time.AfterFunc(full.Timeout, func() { close(deadline) })
		defer timer.Stop()
	}
	var outcomes [2]<-chan outcome
	for i, m := range machines {
		gen := gens[i]
		outcomes[i] = startGuarded(m.spec, func() (Result, error) {
			// A core that fails detaches; after the stream's end
			// Stop is a no-op.
			defer gen.Stop()
			return m.run(gen), nil
		})
	}
	return slot(awaitRun(full, outcomes[0], deadline)), slot(awaitRun(perfect, outcomes[1], deadline))
}

// decompJob is one unit of DecomposeBatch's worker pool: the pass list
// index of a realistic (or already perfect) pass, and of the perfect
// pass that rides its stream, or -1 when it runs alone.
type decompJob struct{ full, perfect int }

// decompPlan lays out DecomposeBatch's passes and groups them into
// jobs.  fullAt[i] and perfectAt[i] are the pass indices of spec i's
// realistic and perfect passes; they coincide for a perfect spec, and
// specs with the same perfectPassKey share one perfect pass, paired
// with the first of them.
func decompPlan(specs []Spec) (passes []Spec, jobs []decompJob, fullAt, perfectAt []int) {
	passes = make([]Spec, 0, 2*len(specs))
	fullAt = make([]int, len(specs))
	perfectAt = make([]int, len(specs))
	shared := make(map[perfectKey]int)
	for i, s := range specs {
		job := decompJob{full: len(passes), perfect: -1}
		fullAt[i] = job.full
		passes = append(passes, s)
		if s.Mem != nil && s.Mem.PerfectData {
			perfectAt[i] = job.full
			jobs = append(jobs, job)
			continue
		}
		p := perfectSpec(s)
		key, ok := perfectPassKey(p)
		if at, seen := shared[key]; ok && seen {
			perfectAt[i] = at
		} else {
			job.perfect = len(passes)
			perfectAt[i] = job.perfect
			passes = append(passes, p)
			if ok {
				shared[key] = job.perfect
			}
		}
		jobs = append(jobs, job)
	}
	return passes, jobs, fullAt, perfectAt
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
