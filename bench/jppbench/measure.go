package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/olden"
)

// quartiles summarises a sample: first quartile, median and third
// quartile by linear interpolation between order statistics, with the
// value reported for it — the median unless a metric says otherwise.
type quartiles struct {
	value, q1, med, q3 float64
	n                  int
}

func quartilesOf(xs []float64) quartiles {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return quartiles{value: at(0.5), q1: at(0.25), med: at(0.5), q3: at(0.75), n: len(s)}
}

// item is one unit of a timed pass: a simulation, or one regenerated
// paper artifact.
type item struct {
	label string
	// bench groups simulations whose architectural results must agree
	// across schemes ("" for artifacts).
	bench string
	// run performs the item once.  The cost covers only the call into the
	// program, not the checks that follow it.
	run func() (out itemOut, c cost, err error)
}

// cost is the host time one call took: its wall time, and the CPU time
// the process spent meanwhile (user and system, every thread, so the
// collector and paper-artifacts' second worker count too).
type cost struct{ wall, cpu time.Duration }

// measure runs f and returns its cost.
func measure(f func()) cost {
	cpu0, wall0 := processCPU(), time.Now()
	f()
	return cost{wall: time.Since(wall0), cpu: processCPU() - cpu0}
}

// processCPU is the CPU time the process has used so far.  Time the
// kernel gives to other processes, or the host to other guests, does not
// count; the host running this process's work slower still does
// (speed.go).
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// itemOut is what one run of an item produced.
type itemOut struct {
	insts uint64
	// digest is the canonical encoding of the item's output that
	// sim_digest hashes.
	digest []byte
	// payload is the simulated heap's payload checksum, which prefetching
	// must not change (simulations only).
	payload uint64
}

// runSpec simulates one spec through harness.RunGuarded and checks the
// result: no error or panic, an untruncated run, a valid snapshot.
func runSpec(s harness.Spec) (itemOut, cost, error) {
	var res harness.Result
	var err error
	c := measure(func() { res, err = harness.RunGuarded(s) })
	if err != nil {
		return itemOut{}, c, err
	}
	if res.CPU.Truncated {
		return itemOut{}, c, fmt.Errorf("run truncated")
	}
	if err := res.Stats.Validate(); err != nil {
		return itemOut{}, c, err
	}
	digest, err := json.Marshal(res.Stats)
	if err != nil {
		return itemOut{}, c, err
	}
	payload := res.Heap.PayloadChecksum()
	digest = binary.LittleEndian.AppendUint64(digest, payload)
	return itemOut{insts: res.CPU.Insts, digest: digest, payload: payload}, c, nil
}

// items lists what w's timed passes run, in canonical order.
func (w workload) items() ([]item, error) {
	var out []item
	if w.artifacts == nil {
		for _, s := range w.specs {
			out = append(out, item{label: specLabel(s), bench: s.Bench, run: func() (itemOut, cost, error) {
				return runSpec(s)
			}})
		}
		return out, nil
	}
	memo := map[string]uint64{}
	for _, a := range w.artifacts {
		var insts uint64
		err := guard(func() (err error) {
			insts, err = censusInsts(a.census, memo)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s census: %w", a.id, err)
		}
		cfg := harness.ExpConfig{Size: w.size, Workers: paperWorkers}
		out = append(out, item{label: a.id, run: func() (itemOut, cost, error) {
			var rep harness.Report
			var err error
			c := measure(func() { rep, err = a.fn(cfg) })
			if err == nil && rep.Text == "" {
				err = fmt.Errorf("empty report")
			}
			return itemOut{insts: insts, digest: []byte(rep.Text)}, c, err
		}})
	}
	return out, nil
}

// guard runs f, turning a panic into an error.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// itemSamples accumulates one item's runs in a timed pass.
type itemSamples struct {
	out    itemOut // first successful run
	ok     bool
	cpus   []float64 // CPU seconds
	walls  []float64 // seconds
	allocs []float64 // bytes allocated
	peaks  []float64 // peak resident bytes
	// probes holds the mean speed-probe time around each run: over the
	// probes just before it and just after it.
	probes []float64
}

// timedPass runs w closed-loop for the given time: one client, each
// item starting when the previous one finished.  The first pass always
// completes; further passes run until the time is up, each in an order
// the seed permutes (paper-artifacts keeps the paper's order).  Each
// item is timed, and its allocation and peak RSS measured, on its own;
// the workload's numbers are then built per item, so a pass cut short
// by the deadline still counts.  Between items run speed probes; each
// item run's CPU time is scaled by the probes just before and just after
// it (speed.go).
func timedPass(w workload, seed uint64, seconds float64) *outcome {
	o := &outcome{workload: w.name}
	var setup, speed []float64
	probe := newSpeedProbe()
	items, err := w.items()
	if err != nil {
		o.fail("%v", err)
		return o
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	samples := make([]itemSamples, len(items))
	// probed and worked are the CPU seconds spent so far in speed probes
	// and in items.
	var probed, worked float64
	// probeBatch runs speed probes for a fixed share of the items' time,
	// so they sample the host evenly over the run however long the items
	// are.  A finished collection first leaves the collector idle while
	// they run.
	probeBatch := func() []float64 {
		runtime.GC()
		var batch []float64
		for len(batch) == 0 || probed < speedProbeShare*worked {
			d := probe.run()
			batch, probed = append(batch, d), probed+d
		}
		speed = append(speed, batch...)
		return batch
	}
	// last is the item whose latest run still waits for the probes after
	// it; before are the probes that preceded that run.
	var last *itemSamples
	var before []float64
	bracket := func(after []float64) {
		if last != nil {
			last.probes = append(last.probes, mean(slices.Concat(before, after)))
		}
		last = nil
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		order := rng.Perm(len(items))
		if w.artifacts != nil {
			slices.Sort(order)
		}
		for _, i := range order {
			if pass > 0 && time.Since(start).Seconds() >= seconds {
				bracket(probeBatch())
				return o.finishTimed(items, samples, setup, speed)
			}
			// A set-up probe before every item spreads the probes over the
			// whole run, so setup_s samples the host as the items do.
			if d, err := launchProbe(w); err != nil {
				o.attempted++
				o.fail("setup probe: %v", err)
			} else {
				setup = append(setup, d)
			}
			batch := probeBatch()
			bracket(batch)
			o.attempted++
			c, err := runItem(items[i], &samples[i])
			if err != nil {
				o.fail("%s: %v", items[i].label, err)
			} else {
				last, before = &samples[i], batch
			}
			worked += c.cpu.Seconds()
		}
		o.passes++
	}
}

// runItem runs it once, records its measurements into s and returns its
// cost.  The heap is returned to the OS first, so every run starts from
// the same resident set whatever ran before it.
func runItem(it item, s *itemSamples) (cost, error) {
	debug.FreeOSMemory()
	// Where the kernel refuses the reset, VmHWM keeps the process
	// lifetime's peak, which still covers the heaviest item run so far.
	_ = resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out itemOut
	var c cost
	err := guard(func() (err error) {
		out, c, err = it.run()
		return err
	})
	if err != nil {
		return c, err
	}
	runtime.ReadMemStats(&after)
	peak, err := peakRSS()
	if err != nil {
		return c, err
	}
	if s.ok && !bytes.Equal(out.digest, s.out.digest) {
		return c, fmt.Errorf("output differs from the first run (sim_digest mismatch)")
	}
	if !s.ok {
		s.out, s.ok = out, true
	}
	s.cpus = append(s.cpus, c.cpu.Seconds())
	s.walls = append(s.walls, c.wall.Seconds())
	s.allocs = append(s.allocs, float64(after.TotalAlloc-before.TotalAlloc))
	s.peaks = append(s.peaks, peak)
	return c, nil
}

// finishTimed checks the pass's outputs and aggregates its metrics.
func (o *outcome) finishTimed(items []item, samples []itemSamples, setup, speed []float64) *outcome {
	// Prefetching must leave every benchmark's architectural state
	// unchanged, so its heap payload agrees across schemes.
	payloads := map[string]uint64{}
	o.itemCPUs, o.itemWalls, o.itemProbes = map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	h := sha256.New()
	var insts uint64
	var cpus, norms, walls, allocs, peaks []quartiles
	for i, it := range items {
		s := samples[i]
		if !s.ok {
			continue
		}
		if it.bench != "" {
			if p, seen := payloads[it.bench]; seen && p != s.out.payload {
				o.fail("%s: heap payload differs from another scheme's run of %s", it.label, it.bench)
			}
			payloads[it.bench] = s.out.payload
		}
		h.Write(s.out.digest)
		insts += s.out.insts
		o.itemCPUs[it.label], o.itemWalls[it.label], o.itemProbes[it.label] = s.cpus, s.walls, s.probes
		cpus = append(cpus, quartilesOf(s.cpus))
		// Each run's CPU time on the reference host: scaled by the speed
		// the probes around it measured (speed.go).
		norm := make([]float64, len(s.cpus))
		for k, c := range s.cpus {
			norm[k] = c * speedProbeRef / s.probes[k]
		}
		norms = append(norms, quartilesOf(norm))
		walls = append(walls, quartilesOf(s.walls))
		allocs = append(allocs, quartilesOf(s.allocs))
		peaks = append(peaks, quartilesOf(s.peaks))
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	cpu := sumQuartiles(norms)
	o.set("cpu_s", cpu)
	mips := func(seconds float64) float64 { return ratio(float64(insts), seconds*1e6) }
	o.set("sim_mips", quartiles{
		value: mips(cpu.value), q1: mips(cpu.q3), med: mips(cpu.med), q3: mips(cpu.q1), n: cpu.n,
	})
	// The set-up probes, each a few milliseconds spread over the run,
	// are scaled by the run's median probe time.
	scale := speedProbeRef / quartilesOf(speed).med
	o.set("setup_s", scaled(quartilesOf(setup), scale))
	o.speeds = speed
	o.extra = append(o.extra,
		metricValue{metricDef{name: "raw_cpu_s", unit: "s"}, sumQuartiles(cpus).value},
		metricValue{metricDef{name: "wall_s", unit: "s"}, sumQuartiles(walls).value},
		metricValue{metricDef{name: "host_speed", unit: "x"}, scale})
	o.set("alloc_mb", scaled(sumQuartiles(allocs), 1e-6))
	o.set("peak_rss_mb", scaled(maxQuartiles(peaks), 1e-6))
	return o
}

func scaled(q quartiles, f float64) quartiles {
	return quartiles{value: q.value * f, q1: q.q1 * f, med: q.med * f, q3: q.q3 * f, n: q.n}
}

// sumQuartiles adds per-item summaries into the workload's: each field
// is the sum of the items' fields, and n the fewest runs any item had.
func sumQuartiles(qs []quartiles) quartiles {
	return foldQuartiles(qs, func(a, b float64) float64 { return a + b })
}

// maxQuartiles takes the heaviest item's summary, field by field.
func maxQuartiles(qs []quartiles) quartiles {
	return foldQuartiles(qs, func(a, b float64) float64 { return max(a, b) })
}

func foldQuartiles(qs []quartiles, f func(a, b float64) float64) quartiles {
	if len(qs) == 0 {
		return quartiles{}
	}
	out := qs[0]
	for _, q := range qs[1:] {
		out.value, out.q1, out.med, out.q3 = f(out.value, q.value), f(out.q1, q.q1), f(out.med, q.med), f(out.q3, q.q3)
		out.n = min(out.n, q.n)
	}
	return out
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// probeEnv, when set in the environment to "<workload>,<size>", makes
// the process a set-up probe instead of a benchmark run.
const probeEnv = "JPPBENCH_SETUP_PROBE"

// launchProbe runs the benchmark's own executable once as a set-up
// probe for w and returns the probe process's CPU time in seconds.  Its
// wall time would add the host's scheduling of a short-lived process,
// which doubled it under load while the CPU time held.
func launchProbe(w workload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeEnv+"="+w.name+","+w.size.String())
	msg, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("%v: %s", err, strings.TrimSpace(string(msg)))
	}
	return (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(), nil
}

// setupProbe is the probe process: with the registries initialised at
// start-up, it builds the Table 2 machine for the workload's first spec
// through the constructors harness.Run calls, and returns once the
// generator has delivered its first batch.
func setupProbe(arg string) error {
	name, sizeName, _ := strings.Cut(arg, ",")
	size, err := parseSize(sizeName)
	if err != nil {
		return err
	}
	w, err := workloadByName(name, size)
	if err != nil {
		return err
	}
	m, err := newMachine(w.specs[0], nil, nil)
	if err != nil {
		return err
	}
	if ins, _ := m.gen.NextBatch(); len(ins) == 0 {
		return fmt.Errorf("%s: empty first batch", specLabel(w.specs[0]))
	}
	return nil
}

// parseSize maps an input-size name to olden's sizes; "" means each
// workload's own size.
func parseSize(name string) (olden.Size, error) {
	for _, s := range []olden.Size{olden.SizeTest, olden.SizeSmall, olden.SizeFull, olden.SizeLarge} {
		if s.String() == name {
			return s, nil
		}
	}
	if name == "" {
		return 0, nil
	}
	return 0, fmt.Errorf("unknown size %q", name)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads VmHWM in bytes.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
