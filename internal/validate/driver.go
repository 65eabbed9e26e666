package validate

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/olden"
	"repro/internal/prefetch"
)

// Failure describes one divergence (or fault) the driver found.  A
// clean subject produces none.
type Failure struct {
	// Subject identifies the workload/configuration, e.g.
	// "health/coop" or "prog[seed=7]/hw/noskip".
	Subject string
	// Check names the property that failed: "run", "interp", "oracle",
	// "digest", "heap", "orig-insts", "commit-count", "skip-cycles",
	// "replay-cycles", "cycle-sanity", "truncated".
	Check string
	// Detail is the human-readable explanation.
	Detail string
}

func (f Failure) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Subject, f.Check, f.Detail)
}

// Driver defaults.
const (
	// DefaultTimeout is the per-simulation wall-clock deadline: a
	// wedged configuration degrades to a reported failure instead of
	// hanging the matrix.
	DefaultTimeout = 2 * time.Minute
	// DefaultMaxCycles is the per-simulation cycle backstop, so an
	// abandoned (timed-out) run also stops simulating on its own.  It
	// is far above any healthy test/small-size run.
	DefaultMaxCycles = 2_000_000_000
	// DefaultSlackRatio/DefaultSlackAbs bound the cycle-sanity check:
	// scheme cycles <= ratio*baseline + abs.  Prefetching is allowed to
	// slow a program down (the paper reports software-scheme overhead
	// slowdowns); the bound exists to catch wedges and gross timing
	// regressions, not to gate performance.
	DefaultSlackRatio = 2.0
	DefaultSlackAbs   = 100_000
)

// Config tunes the differential driver.  The zero value selects every
// scheme and the defaults above.
type Config struct {
	// Schemes to run; nil selects core.Schemes().  The first entry is
	// the cycle-sanity baseline (conventionally SchemeNone).
	Schemes []core.Scheme
	// Engines names registry prefetch engines (internal/prefetch) to
	// validate in addition to the schemes: each runs the unmodified
	// (scheme-none) workload with the engine attached, skip on and off,
	// against the same oracle.  nil selects prefetch.Competitors() —
	// the engines no scheme default already covers; an empty non-nil
	// slice disables the engine leg.
	Engines []string
	// Timeout is the per-simulation deadline (0 = DefaultTimeout,
	// negative = none).
	Timeout time.Duration
	// MaxCycles is the per-simulation backstop (0 = DefaultMaxCycles).
	MaxCycles uint64
	// SlackRatio/SlackAbs override the cycle-sanity bound (0 = default).
	SlackRatio float64
	SlackAbs   uint64

	// Fault and FaultAfter plant a deliberate commit-stage bug into
	// every timing run (never into the oracle).  Mutation tests use
	// them to prove the driver catches real core defects.
	Fault      cpu.Fault
	FaultAfter uint64
}

func (c Config) norm() Config {
	if c.Schemes == nil {
		c.Schemes = core.Schemes()
	}
	if c.Engines == nil {
		c.Engines = prefetch.Competitors()
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = DefaultMaxCycles
	}
	if c.SlackRatio == 0 {
		c.SlackRatio = DefaultSlackRatio
	}
	if c.SlackAbs == 0 {
		c.SlackAbs = DefaultSlackAbs
	}
	return c
}

// oracleGuarded is Oracle with fault isolation: a panicking kernel
// becomes an error instead of killing the matrix.
func oracleGuarded(kernel func(*ir.Asm), withRegs bool) (full, user Digest, st ir.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("oracle panicked: %v", r)
		}
	}()
	full, user, st = Oracle(kernel, withRegs)
	return full, user, st, nil
}

// diffDigest compares a run digest against the oracle's field by field.
func diffDigest(subject string, got, want Digest, withRegs bool) []Failure {
	var fails []Failure
	add := func(check, format string, args ...any) {
		fails = append(fails, Failure{Subject: subject, Check: check, Detail: fmt.Sprintf(format, args...)})
	}
	if got.Insts != want.Insts {
		add("digest", "instruction count %d, oracle %d", got.Insts, want.Insts)
	}
	if got.MemHash != want.MemHash {
		add("digest", "load/store stream hash %#x, oracle %#x", got.MemHash, want.MemHash)
	}
	if got.HeapSum != want.HeapSum {
		add("heap", "heap payload checksum %#x, oracle %#x", got.HeapSum, want.HeapSum)
	}
	if withRegs && got.Regs != want.Regs {
		add("digest", "final registers %v, oracle %v", got.Regs, want.Regs)
	}
	return fails
}

// timedRun executes one timing-core simulation with a digest collector
// attached, under the driver's fault isolation (panic recovery +
// deadline + cycle backstop).
func timedRun(spec harness.Spec, disableSkip, disableReplay bool, cfg Config) (harness.Result, *Collector, error) {
	col := NewCollector()
	cc := cpu.Defaults()
	if spec.CPU != nil {
		cc = *spec.CPU
	}
	cc.Tracer = col
	cc.MaxCycles = cfg.MaxCycles
	cc.DisableCycleSkip = disableSkip
	cc.DisableBlockReplay = disableReplay
	cc.InjectFault = cfg.Fault
	cc.FaultAfter = cfg.FaultAfter
	spec.CPU = &cc
	if cfg.Timeout > 0 {
		spec.Timeout = cfg.Timeout
	}
	res, err := harness.RunGuarded(spec)
	return res, col, err
}

// runVariant is one (cycle-skip, block-replay) mode combination of the
// differential matrix.  The default mode runs first.  The replay-off
// leg checks the generator's emission modes against each other: the
// core's front end is the same in both, but the stream and its dispatch
// metadata come from live decode instead of the replay cache, so a
// replay bug shows up as a digest or cycle difference.
type runVariant struct {
	name                       string
	disableSkip, disableReplay bool
}

var runVariants = [...]runVariant{
	{name: "skip", disableSkip: false, disableReplay: false},
	{name: "noskip", disableSkip: true, disableReplay: false},
	{name: "noreplay", disableSkip: false, disableReplay: true},
}

// checkRuns drives one workload/scheme through the core under every
// (cycle-skip, block-replay) variant, comparing each commit-side digest
// against the oracle and asserting all variants are cycle-exact
// equivalents.  It returns the default variant's cycle count (0 when it
// could not be obtained) for the caller's cycle-sanity bound.
func checkRuns(subject string, spec harness.Spec, oracle Digest, emitted uint64, withRegs bool, cfg Config) ([]Failure, uint64) {
	var fails []Failure
	var cycles [len(runVariants)]uint64
	ok := [len(runVariants)]bool{}
	for i, v := range runVariants {
		name := subject + "/" + v.name
		res, col, err := timedRun(spec, v.disableSkip, v.disableReplay, cfg)
		if err != nil {
			fails = append(fails, Failure{Subject: name, Check: "run", Detail: err.Error()})
			continue
		}
		if res.CPU.Truncated {
			fails = append(fails, Failure{Subject: name, Check: "truncated",
				Detail: fmt.Sprintf("hit the %d-cycle backstop", cfg.MaxCycles)})
			continue
		}
		if got, want := res.CPU.Insts, res.Insts.Total(); got != want {
			fails = append(fails, Failure{Subject: name, Check: "commit-count",
				Detail: fmt.Sprintf("committed %d instructions, kernel emitted %d", got, want)})
		}
		if emitted > 0 && res.Insts.Total() != emitted {
			fails = append(fails, Failure{Subject: name, Check: "commit-count",
				Detail: fmt.Sprintf("kernel emitted %d instructions, oracle saw %d", res.Insts.Total(), emitted)})
		}
		var regs [NumRegs]uint32
		if withRegs {
			regs = finalRegs(res.Heap)
		}
		full, _ := col.Digests(res.Heap.PayloadChecksum(), regs)
		fails = append(fails, diffDigest(name, full, oracle, withRegs)...)
		cycles[i] = res.CPU.Cycles
		ok[i] = true
	}
	if ok[0] && ok[1] && cycles[0] != cycles[1] {
		fails = append(fails, Failure{Subject: subject, Check: "skip-cycles",
			Detail: fmt.Sprintf("cycle skipping changed execution time: skip=%d noskip=%d", cycles[0], cycles[1])})
	}
	if ok[0] && ok[2] && cycles[0] != cycles[2] {
		fails = append(fails, Failure{Subject: subject, Check: "replay-cycles",
			Detail: fmt.Sprintf("block replay changed execution time: replay=%d noreplay=%d", cycles[0], cycles[2])})
	}
	if ok[0] {
		return fails, cycles[0]
	}
	return fails, 0
}

// cycleSanity bounds a scheme's execution time against the baseline.
func cycleSanity(subject string, cycles, base uint64, cfg Config) []Failure {
	if base == 0 || cycles == 0 {
		return nil
	}
	bound := uint64(cfg.SlackRatio*float64(base)) + cfg.SlackAbs
	if cycles > bound {
		return []Failure{{Subject: subject, Check: "cycle-sanity",
			Detail: fmt.Sprintf("%d cycles exceeds %.1fx baseline (%d) + %d = %d",
				cycles, cfg.SlackRatio, base, cfg.SlackAbs, bound)}}
	}
	return nil
}

// CheckProgram validates one seeded random program: the reference
// interpreter, the in-order stream oracle and every timing-core run
// (scheme x cycle-skip mode) must agree on the architectural digest.
func CheckProgram(seed uint64, cfg Config) []Failure {
	cfg = cfg.norm()
	subject := fmt.Sprintf("prog[seed=%d]", seed)
	prog := Generate(seed)

	ref, err := Interpret(prog)
	if err != nil {
		return []Failure{{Subject: subject, Check: "interp",
			Detail: fmt.Sprintf("generator emitted a trapping program: %v", err)}}
	}
	kernel, err := Lower(prog)
	if err != nil {
		return []Failure{{Subject: subject, Check: "interp", Detail: err.Error()}}
	}
	full, user, st, err := oracleGuarded(kernel, true)
	if err != nil {
		return []Failure{{Subject: subject, Check: "oracle", Detail: err.Error()}}
	}

	// Lowering fidelity: the Asm execution restricted to user sites
	// must match the independent interpreter exactly.
	fails := diffDigest(subject+"/oracle-vs-interp", user, ref, true)
	if ref.Insts == 0 {
		fails = append(fails, Failure{Subject: subject, Check: "interp", Detail: "empty program digest (vacuous)"})
	}

	// Timing matrix: the commit stream must reproduce the oracle stream
	// under every scheme.  The lowered kernel is scheme-independent, so
	// one oracle digest serves the whole matrix.
	var base uint64
	for i, scheme := range cfg.Schemes {
		spec := harness.Spec{
			Bench:  subject,
			Kernel: kernel,
			Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
		}
		runFails, cycles := checkRuns(fmt.Sprintf("%s/%s", subject, scheme), spec, full, st.Total(), true, cfg)
		fails = append(fails, runFails...)
		if i == 0 {
			base = cycles
		} else {
			fails = append(fails, cycleSanity(fmt.Sprintf("%s/%s", subject, scheme), cycles, base, cfg)...)
		}
	}
	// Engine leg: registry prefetchers are pure hardware — they must not
	// perturb the committed stream, so the same oracle digest applies.
	for _, engName := range cfg.Engines {
		name := fmt.Sprintf("%s/eng=%s", subject, engName)
		spec := harness.Spec{
			Bench:  subject,
			Kernel: kernel,
			Engine: engName,
			Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		}
		runFails, cycles := checkRuns(name, spec, full, st.Total(), true, cfg)
		fails = append(fails, runFails...)
		fails = append(fails, cycleSanity(name, cycles, base, cfg)...)
	}
	return fails
}

// CheckKernel validates one registered workload (Olden or
// internal/kernels) at the given input size: for every scheme, the
// timing core's commit stream (skip on and off) must be byte-identical
// to the in-order oracle's drain of the same kernel, the heap payload
// checksum and non-overhead instruction count must be invariant across
// schemes, and no scheme may blow past the cycle-sanity bound.
func CheckKernel(bench string, size olden.Size, cfg Config) []Failure {
	cfg = cfg.norm()
	b, ok := olden.ByName(bench)
	if !ok {
		return []Failure{{Subject: bench, Check: "run", Detail: "unknown benchmark"}}
	}
	var fails []Failure
	var base uint64
	var baseHeap, baseOrig uint64
	for i, scheme := range cfg.Schemes {
		subject := fmt.Sprintf("%s/%s", bench, scheme)
		params := olden.Params{Scheme: scheme, Size: size}

		// Per-scheme oracle: the software schemes change the emitted
		// stream (idiom code), so each scheme is compared against the
		// in-order drain of its own stream.
		full, _, st, err := oracleGuarded(b.Kernel(params), false)
		if err != nil {
			fails = append(fails, Failure{Subject: subject, Check: "oracle", Detail: err.Error()})
			continue
		}
		if i == 0 {
			baseHeap, baseOrig = full.HeapSum, st.OrigInsts
		} else {
			// Prefetching may plant jump pointers in padding and emit
			// overhead instructions; it must not touch payloads or the
			// original instruction stream.
			if full.HeapSum != baseHeap {
				fails = append(fails, Failure{Subject: subject, Check: "heap",
					Detail: fmt.Sprintf("heap payload checksum %#x, baseline %#x", full.HeapSum, baseHeap)})
			}
			if st.OrigInsts != baseOrig {
				fails = append(fails, Failure{Subject: subject, Check: "orig-insts",
					Detail: fmt.Sprintf("%d non-overhead instructions, baseline %d", st.OrigInsts, baseOrig)})
			}
		}

		spec := harness.Spec{Bench: bench, Params: params}
		runFails, cycles := checkRuns(subject, spec, full, st.Total(), false, cfg)
		fails = append(fails, runFails...)
		if i == 0 {
			base = cycles
		} else {
			fails = append(fails, cycleSanity(subject, cycles, base, cfg)...)
		}
	}
	// Engine leg: every configured registry engine runs the unmodified
	// (scheme-none) kernel.  Engines are invisible to architectural
	// state, so the scheme-none oracle digest is the reference.
	if len(cfg.Engines) > 0 {
		params := olden.Params{Scheme: core.SchemeNone, Size: size}
		full, _, st, err := oracleGuarded(b.Kernel(params), false)
		if err != nil {
			fails = append(fails, Failure{Subject: bench + "/eng", Check: "oracle", Detail: err.Error()})
			return fails
		}
		for _, engName := range cfg.Engines {
			subject := fmt.Sprintf("%s/eng=%s", bench, engName)
			spec := harness.Spec{Bench: bench, Params: params, Engine: engName}
			runFails, cycles := checkRuns(subject, spec, full, st.Total(), false, cfg)
			fails = append(fails, runFails...)
			fails = append(fails, cycleSanity(subject, cycles, base, cfg)...)
		}
	}
	return fails
}

// MatrixOptions configures RunMatrix.
type MatrixOptions struct {
	Config
	// Benches restricts the kernel matrix (nil = every registered
	// benchmark).
	Benches []string
	// Size is the kernel matrix input size (0 = olden.SizeTest).
	Size olden.Size
	// Programs is the random-program count (0 = 25, negative = none).
	Programs int
	// Seed is the first program seed (0 = 1); programs use Seed,
	// Seed+1, ...
	Seed uint64
}

// RunMatrix runs the full differential matrix — every benchmark x
// scheme x skip mode plus the seeded random-program sweep — writing a
// progress line per subject to w (nil discards) and returning every
// failure.
func RunMatrix(w io.Writer, o MatrixOptions) []Failure {
	if w == nil {
		w = io.Discard
	}
	benches := o.Benches
	if benches == nil {
		benches = olden.Names()
	}
	if o.Size == 0 {
		o.Size = olden.SizeTest
	}
	if o.Programs == 0 {
		o.Programs = 25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	status := func(fails []Failure) string {
		if len(fails) == 0 {
			return "ok"
		}
		return fmt.Sprintf("FAIL (%d)", len(fails))
	}
	var all []Failure
	subjects := 0
	for _, bench := range benches {
		fails := CheckKernel(bench, o.Size, o.Config)
		fmt.Fprintf(w, "kernel  %-14s %s\n", bench, status(fails))
		all = append(all, fails...)
		subjects++
	}
	for i := 0; i < o.Programs; i++ {
		seed := o.Seed + uint64(i)
		fails := CheckProgram(seed, o.Config)
		fmt.Fprintf(w, "program seed=%-8d %s\n", seed, status(fails))
		all = append(all, fails...)
		subjects++
	}
	for _, f := range all {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintf(w, "validate: %d subjects, %d failure(s)\n", subjects, len(all))
	return all
}
