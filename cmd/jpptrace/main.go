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

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/ir"
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

	if _, ok := olden.ByName(*bench); !ok {
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

	cfg := cpu.Defaults()
	cfg.Tracer = &tracer{out: out, skip: *skip, limit: *n}
	fmt.Fprintf(out, "# %s / %v — seq, pc, class, dispatch cycle, issue/done deltas\n", *bench, params.Scheme)
	res, err := harness.Run(harness.Spec{Bench: *bench, Params: params, CPU: &cfg})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# run: %d cycles, %d instructions, IPC %.2f\n",
		res.CPU.Cycles, res.CPU.Insts, res.CPU.IPC())
	return nil
}
