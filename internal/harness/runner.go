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

// The batch runner executes simulations concurrently on a bounded
// worker pool while keeping results in deterministic input order.
// Passes that read the same instruction stream run as one job, a group
// (planGroups): one kernel execution, memory image and heap feed one
// machine per pass, in strict handoff (runGroup).  Groups share no
// mutable state, so the pool can use every host core.
// Experiment drivers declare their spec sets up front and assemble
// reports from the ordered batch results, which makes report text
// independent of worker count (see TestParallelSerialIdenticalReports).

// RunItem is one slot of a batch result: the run outcome, or the error
// that spec produced.  A failed spec does not abort the batch; the
// other slots are still filled.
//
// A batch keeps statistics, not machines: the slot's Result.Hier, Heap
// and PrefEngine are cleared as soon as its group finishes, so an
// experiment holds at most one group's machines per worker: one memory
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

// runRecover executes run (Run(spec), or one pass of a group),
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
// Specs that read the same instruction stream share kernel executions
// (planGroups), and at most workers executions run concurrently
// (workers <= 0 selects GOMAXPROCS).  Every pass is fault-isolated as
// under RunGuarded: errors, panics and deadline overruns are captured
// per slot rather than aborting the batch (or, for panics, the whole
// process).  Slots hold statistics only (see RunItem).
func RunBatch(specs []Spec, workers int) []RunItem {
	return runPlan(specs, planGroups(specs), workers)
}

// DecomposeBatch runs the compute/memory-stall decomposition of every
// spec and returns the results in input order.  Each spec contributes
// its realistic pass and the perfect-data pass it needs (decompPasses),
// and the passes run as RunBatch's do: those that read one instruction
// stream share kernel executions.  Items hold statistics only (see
// Decomposition.Full).
func DecomposeBatch(specs []Spec, workers int) []DecompItem {
	out := make([]DecompItem, len(specs))
	passes, fullAt, perfectAt := decompPasses(specs)
	runs := runPlan(passes, planGroups(passes), workers)
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

// decompPasses lays out DecomposeBatch's passes: each spec's realistic
// pass, followed by the perfect pass it needs.  fullAt[i] and
// perfectAt[i] are spec i's pass indices.  They coincide for a spec
// that already requests perfect data memory, which has no stall to
// measure.  Perfect passes that are the same simulation (one stream,
// one Mem; no engine attaches to them, so Engine, DBP and HW cannot
// change them) are listed once, at the first spec that needs it.
func decompPasses(specs []Spec) (passes []Spec, fullAt, perfectAt []int) {
	type perfectKey struct {
		stream streamKey
		mem    cache.Params
	}
	passes = make([]Spec, 0, 2*len(specs))
	fullAt = make([]int, len(specs))
	perfectAt = make([]int, len(specs))
	shared := make(map[perfectKey]int)
	for i, s := range specs {
		fullAt[i] = len(passes)
		passes = append(passes, s)
		if s.Mem != nil && s.Mem.PerfectData {
			perfectAt[i] = fullAt[i]
			continue
		}
		p := perfectSpec(s)
		stream, ok := streamOf(p)
		key := perfectKey{stream, *p.Mem}
		if at, seen := shared[key]; ok && seen {
			perfectAt[i] = at
			continue
		}
		perfectAt[i] = len(passes)
		passes = append(passes, p)
		if ok {
			shared[key] = perfectAt[i]
		}
	}
	return passes, fullAt, perfectAt
}

// streamKey identifies the instruction stream a pass's kernel emits:
// passes with equal keys read the same stream.  Kernels read the
// scheme only through Scheme.UsesSoftwareIdiom and the cooperative
// test, so none, dbp and hw emit one stream, and Mem, DBP, HW and
// Engine shape only the timing side.  The interval stays in the key,
// resolved (0 selects core.DefaultInterval), because a workload may use
// it structurally: quicklist's skip distance.  The timeout stays
// because a group runs under one deadline.
// TestPerfectPassIgnoresHardwareScheme pins the scheme and interval
// rules over every registered workload.
type streamKey struct {
	bench   string
	params  olden.Params
	timeout time.Duration
}

// streamOf returns the stream key of pass p, or false when p must run
// alone: a custom Kernel, a CPU override (a tracer, an injected fault,
// an emission mode) or a sampled run is never grouped.
func streamOf(p Spec) (streamKey, bool) {
	if p.Kernel != nil || p.CPU != nil || p.Sampling != nil {
		return streamKey{}, false
	}
	k := streamKey{bench: p.Bench, params: p.Params, timeout: p.Timeout}
	if !k.params.Scheme.UsesSoftwareIdiom() {
		k.params.Scheme = core.SchemeNone
	}
	if k.params.Interval == 0 {
		k.params.Interval = core.DefaultInterval
	}
	return k, true
}

// planGroups partitions passes into kernel executions: each group lists
// pass indices, in input order, that read one stream (streamOf), and
// runs as one job of the worker pool (runGroup).  A group holds at most
// one pass with an engine attached (attachedEngine).  An engine reads
// the image, and the hardware engine writes jump pointers into its
// padding, so with one engine per image each engine sees the image of
// its solo run.  Cores never read the image, so every engine-less pass
// rides the stream's first group; each further engine pass opens a
// group of its own.
func planGroups(passes []Spec) [][]int {
	var (
		groups  [][]int
		engined []bool // whether groups[g] holds an engine pass
	)
	first := make(map[streamKey]int)
	for i, p := range passes {
		key, ok := streamOf(p)
		engine := attachedEngine(p) != ""
		if ok {
			if g, seen := first[key]; !seen {
				first[key] = len(groups)
			} else if !engine || !engined[g] {
				groups[g] = append(groups[g], i)
				engined[g] = engined[g] || engine
				continue
			}
		}
		groups = append(groups, []int{i})
		engined = append(engined, engine)
	}
	return groups
}

// runPlan runs the groups of passes on at most workers goroutines and
// returns every pass's slot in pass order.
func runPlan(passes []Spec, groups [][]int, workers int) []RunItem {
	out := make([]RunItem, len(passes))
	forEach(len(groups), workers, func(g int) {
		group := make([]Spec, len(groups[g]))
		for i, p := range groups[g] {
			group[i] = passes[p]
		}
		for i, it := range runGroup(group) {
			out[groups[g][i]] = slot(it.Result, it.Err)
		}
	})
	return out
}

// runGroup runs passes that read one instruction stream over one kernel
// execution: one image, heap and ir.NewGenShared stream feed one
// machine per pass, in strict handoff, so the kernel emits the next
// batch only after every pass has drained the last.  The results, which
// keep their machines, equal one RunGuarded per pass provided at most
// one pass attaches an engine (see planGroups).  Each pass is
// fault-isolated: a failing core detaches from the stream and the
// others run on, while a kernel panic fails every pass.  The first
// pass's Timeout bounds the group, all passes together.  A group of one
// is RunGuarded.
func runGroup(passes []Spec) []RunItem {
	out := make([]RunItem, len(passes))
	lead := passes[0]
	if len(passes) == 1 {
		out[0].Result, out[0].Err = RunGuarded(lead)
		return out
	}
	kernel, err := lead.kernel()
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	alloc := heap.New(mem.NewImage())
	machines := make([]*machine, len(passes))
	_, err = runRecover(lead, func() (Result, error) {
		var err error
		for i, s := range passes {
			if machines[i], err = newMachine(s, alloc); err != nil {
				break
			}
		}
		return Result{}, err
	})
	if err != nil {
		// A pass whose machine cannot be built (an unknown engine,
		// say) must not fail the others: each runs on its own.
		for i, s := range passes {
			out[i].Result, out[i].Err = RunGuarded(s)
		}
		return out
	}
	gens := ir.NewGenShared(alloc, kernel, machines[0].gen, len(passes))
	var deadline chan time.Time
	if lead.Timeout > 0 {
		deadline = make(chan time.Time)
		timer := time.AfterFunc(lead.Timeout, func() { close(deadline) })
		defer timer.Stop()
	}
	outcomes := make([]<-chan outcome, len(passes))
	for i, m := range machines {
		gen := gens[i]
		outcomes[i] = startGuarded(m.spec, func() (Result, error) {
			// A core that fails detaches; after the stream's end
			// Stop is a no-op.
			defer gen.Stop()
			return m.run(gen), nil
		})
	}
	for i, s := range passes {
		out[i].Result, out[i].Err = awaitRun(s, outcomes[i], deadline)
	}
	return out
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
