// Command jpptrace dumps a per-instruction pipeline trace of a
// simulated run: dispatch, issue and completion cycles for a window of
// the committed instruction stream.  Useful for inspecting how a
// prefetching scheme reshapes the timing of a pointer-chasing loop.
//
// Usage:
//
//	jpptrace -bench health -scheme coop -skip 50000 -n 40
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbp"
	"repro/internal/harness"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/olden"
)

type tracer struct {
	out         io.Writer
	skip, count uint64
	limit       uint64
}

func (t *tracer) Trace(d *ir.DynInst, dispatched, issued, done uint64) {
	if d.Seq <= t.skip || t.count >= t.limit {
		return
	}
	t.count++
	extra := ""
	switch {
	case d.Class == ir.Load:
		extra = fmt.Sprintf(" addr=%08x", d.Addr)
		if d.Flags&ir.FLDS != 0 {
			extra += " LDS"
		}
	case d.Class == ir.Prefetch:
		extra = fmt.Sprintf(" addr=%08x", d.Addr)
		if d.Flags&ir.FJumpChase != 0 {
			extra += " JUMP"
		}
	case d.Class == ir.Branch:
		if d.Taken {
			extra = " taken"
		}
	}
	fmt.Fprintf(t.out, "%8d  pc=%06x %-6s disp=%-9d issue=+%-4d done=+%-4d%s\n",
		d.Seq, d.PC, d.Class, dispatched, issued-dispatched, done-dispatched, extra)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jpptrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jpptrace", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		bench  = fs.String("bench", "health", "benchmark name")
		scheme = fs.String("scheme", "none", "none|dbp|sw|coop|hw")
		size   = fs.String("size", "small", "test|small|full|large")
		skip   = fs.Uint64("skip", 0, "instructions to skip before tracing")
		n      = fs.Uint64("n", 50, "instructions to trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	b, ok := harness.BenchByName(*bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", *bench)
	}
	var params olden.Params
	var err error
	if params.Size, err = olden.ParseSize(*size); err != nil {
		return err
	}
	if params.Scheme, err = core.ParseScheme(*scheme); err != nil {
		return err
	}

	img := mem.NewImage()
	alloc := heap.New(img)
	memP := cache.Defaults()
	memP.EnablePB = params.Scheme.UsesHardware()
	hier := cache.New(memP)
	pred := bpred.New(bpred.Defaults())

	var eng cpu.PrefetchEngine
	switch params.Scheme {
	case core.SchemeHardware:
		eng = core.NewHWEngine(dbp.Defaults(), core.DefaultHWConfig(), hier, alloc)
	case core.SchemeDBP, core.SchemeCooperative:
		eng = dbp.NewEngine(dbp.Defaults(), hier, alloc)
	}

	cfg := cpu.Defaults()
	cfg.Tracer = &tracer{out: out, skip: *skip, limit: *n}
	gen := ir.NewGen(alloc, b.Kernel(params))
	c := cpu.New(cfg, hier, pred, eng)
	fmt.Fprintf(out, "# %s / %v — seq, pc, class, dispatch cycle, issue/done deltas\n", *bench, params.Scheme)
	stats := c.Run(gen)
	fmt.Fprintf(out, "# run: %d cycles, %d instructions, IPC %.2f\n",
		stats.Cycles, stats.Insts, stats.IPC())
	return nil
}
