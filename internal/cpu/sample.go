package cpu

import "repro/internal/ir"

// SamplingConfig enables SMARTS-style sampled simulation (Wunderlich et
// al., ISCA 2003, adapted to this execution-driven core): the stream is
// simulated in repeating units of Period committed instructions — a
// detailed-but-unmeasured Warmup, a detailed measured interval of
// Detail instructions (plus the pipeline drain that closes it), and a
// functional fast-forward over the remainder.  Fast-forwarded
// instructions execute architecturally (they came from the same kernel
// execution), warm the caches, TLBs and branch predictor, train the
// prefetch engine in commit order, and reach the Tracer — so
// architectural digests are bit-identical to a full run — but consume
// no simulated cycles; their cycle cost is extrapolated from the
// measured intervals' CPI.
//
// Sampled runs are approximate by construction: cycle counts carry
// error bars (see SampleStats) and the per-category cycle attribution
// covers only the detailed spans.  Full-fidelity runs (Sampling == nil)
// are untouched by this mode.
type SamplingConfig struct {
	// Period is the unit length in committed instructions.
	Period uint64
	// Detail is the measured detailed span per unit.
	Detail uint64
	// Warmup is the detailed-but-unmeasured span run before each
	// measured interval to re-warm microarchitectural state after a
	// fast-forward.
	Warmup uint64
}

// DefaultSampling returns a configuration that balances error against
// speed for the Olden-scale streams in this repository: 50k-instruction
// units with a 2k warmup and 5k measured interval (a 14% detailed
// fraction).
func DefaultSampling() SamplingConfig {
	return SamplingConfig{Period: 50_000, Detail: 5_000, Warmup: 2_000}
}

// normalized fills zero fields with defaults and clamps degenerate
// geometry (a unit must at least hold its detailed spans).
func (sc SamplingConfig) normalized() SamplingConfig {
	def := DefaultSampling()
	if sc.Period == 0 {
		sc.Period = def.Period
	}
	if sc.Detail == 0 {
		sc.Detail = def.Detail
	}
	if sc.Detail+sc.Warmup > sc.Period {
		sc.Period = sc.Detail + sc.Warmup
	}
	return sc
}

// SampleStats reports what a sampled run measured and how far the
// extrapolation might be off.
type SampleStats struct {
	// Intervals is the number of measured intervals.
	Intervals int
	// MeasuredInsts/MeasuredCycles cover the measured intervals only
	// (warmup and fast-forwarded spans excluded).
	MeasuredInsts  uint64
	MeasuredCycles uint64
	// FFInsts is the number of functionally fast-forwarded instructions
	// whose cycle cost was extrapolated rather than simulated.
	FFInsts uint64
	// CPIMean and CPIStdErr are the mean and standard error of the
	// per-interval CPI samples.
	CPIMean   float64
	CPIStdErr float64
	// CyclesLo/CyclesHi bound the extrapolated total cycle count at 95%
	// confidence (the extrapolated share varied by ±1.96 standard
	// errors; the detailed share is exact).
	CyclesLo uint64
	CyclesHi uint64
}

// runSampled is Core.Run's sampled-simulation loop.
func (c *Core) runSampled(gen *ir.Gen) Stats {
	sc := c.cfg.Sampling.normalized()
	sam := &SampleStats{}
	var cpis []float64
	// ffAdvanced totals the provisional clock advances made during
	// fast-forwards; the final cycle count replaces them with a
	// retrospective extrapolation over the full measurement set (the
	// provisional advances use only the intervals measured so far and
	// would underweight later program phases).
	var ffAdvanced uint64

	for {
		unitStart := c.s.Insts

		// Detailed warmup: re-prime pipeline-coupled state (window,
		// MSHRs, engine queues) that functional warming cannot reach.
		if c.runDetailed(gen, unitStart+sc.Warmup, true) {
			break
		}

		// Measured interval, closed by a pipeline drain so the cycle
		// span has clean boundaries.
		mStartCycles, mStartInsts := c.now, c.s.Insts
		exhausted := c.runDetailed(gen, mStartInsts+sc.Detail, true)
		if !exhausted && c.count > 0 {
			exhausted = c.runDetailed(gen, ^uint64(0), false)
		}
		if mi := c.s.Insts - mStartInsts; mi > 0 {
			mc := c.now - mStartCycles
			sam.Intervals++
			sam.MeasuredInsts += mi
			sam.MeasuredCycles += mc
			cpis = append(cpis, float64(mc)/float64(mi))
		}
		if exhausted || c.s.Truncated {
			break
		}

		// Functional fast-forward over the unit's remainder.
		ffn := int64(sc.Period) - int64(c.s.Insts-unitStart)
		if ffn > 0 && sam.MeasuredInsts > 0 {
			adv, done := c.fastForward(gen, uint64(ffn), sam)
			ffAdvanced += adv
			if done {
				break
			}
		}
	}

	// Extrapolation error bars: the fast-forwarded share swung by
	// ±1.96 standard errors of the per-interval CPI; the detailed share
	// was simulated exactly.
	if n := len(cpis); n > 0 {
		var sum float64
		for _, v := range cpis {
			sum += v
		}
		sam.CPIMean = sum / float64(n)
		if n > 1 {
			var ss float64
			for _, v := range cpis {
				d := v - sam.CPIMean
				ss += d * d
			}
			sam.CPIStdErr = sqrt(ss/float64(n-1)) / sqrt(float64(n))
		}
	}
	// Final estimate: detailed cycles exactly as simulated, plus the
	// fast-forwarded share extrapolated at the whole run's measured CPI
	// (integer arithmetic for determinism).
	detailed := c.now - ffAdvanced
	var ffCycles uint64
	if sam.MeasuredInsts > 0 {
		ffCycles = sam.FFInsts * sam.MeasuredCycles / sam.MeasuredInsts
	}
	delta := 1.96 * sam.CPIStdErr * float64(sam.FFInsts)
	c.s.Cycles = detailed + ffCycles
	if d := uint64(delta); d < c.s.Cycles {
		sam.CyclesLo = c.s.Cycles - d
	}
	sam.CyclesHi = c.s.Cycles + uint64(delta)
	c.s.Sample = sam
	return c.s
}

// fastForward executes up to n instructions functionally: architectural
// effects already happened in the generator, so the core's job here is
// commit-order bookkeeping (counters, Tracer, engine training),
// microarchitectural warming (caches, TLBs, branch predictor), and the
// provisional clock advance extrapolated from the CPI measured so far,
// so engine/bus reservations age realistically.  It returns the clock
// advance applied and whether the stream ended.
func (c *Core) fastForward(gen *ir.Gen, n uint64, sam *SampleStats) (uint64, bool) {
	var ffed, lastSeq uint64
	warmLine := uint32(0)
	done := false
	for ffed < n {
		d := c.fetched
		if d != nil {
			c.fetched = nil
		} else {
			if d = gen.Next(); d == nil {
				done = true
				break
			}
		}
		lastSeq = d.Seq

		// Instruction-side warming, one probe per fetch line (the same
		// 32B line granularity fetchDispatch uses).
		if line := d.PC>>5<<5 | 1; line != warmLine {
			c.hier.WarmInst(d.PC)
			warmLine = line
		}
		switch d.Class {
		case ir.Load:
			c.hier.WarmData(d.Addr, false)
		case ir.Store:
			c.hier.WarmData(d.Addr, true)
		case ir.Prefetch:
			// Software prefetches shape the cache state their scheme
			// depends on; skipping them would hand the next measured
			// interval a cache that never saw the scheme's benefit and
			// bias its CPI against prefetching runs.
			c.hier.WarmData(d.Addr, false)
		case ir.Branch:
			c.pred.PredictCond(d.PC, d.Taken, d.Target)
		case ir.Jump:
			if d.Flags&ir.FReturn == 0 {
				c.pred.PredictJump(d.PC, d.Target)
			}
		}
		if c.eng != nil {
			c.eng.OnCommit(c.now, d)
		}
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.Trace(d, c.now, c.now, c.now)
		}
		c.s.CommitByCl[d.Class]++
		c.s.Insts++
		ffed++
		if d.Class == ir.Jump || (d.Class == ir.Branch && d.Taken) {
			warmLine = 0
		}
	}
	sam.FFInsts += ffed

	if ffed > 0 {
		// Resynchronize the dispatch bookkeeping past the skipped
		// sequence range.  The window is empty (the drain guaranteed
		// it), so the scheduler masks and queues are all idle, and
		// operands produced inside the range read as ready (below
		// headSeq).
		c.headSeq = lastSeq + 1
		c.nextSeq = lastSeq + 1
	}

	// Advance the clock by the provisional extrapolated cost of the
	// skipped span, then unfreeze fetch at the new time.
	adv := ffed * sam.MeasuredCycles / sam.MeasuredInsts
	c.now += adv
	c.curLine = 0
	c.blockSeq = 0
	if c.fetchReadyAt < c.now {
		c.fetchReadyAt = c.now
	}
	return adv, done
}

// sqrt is a dependency-free Newton iteration (package cpu otherwise
// avoids math imports on the hot path; this runs once per run).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}
