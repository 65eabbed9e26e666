package main

// A shared host's speed drifts by tens of percent within minutes, as
// other guests load the physical core the benchmark runs on and its
// caches: the same simulations, measured in CPU time 25 s apart, differed
// by up to 80 %.  CPU time already leaves out time the host gives to
// others; what is left is the work running slower.  The timed pass
// therefore runs a fixed speed probe between items, for a fixed share of
// the items' time, and scales each item run's CPU time by the ratio of
// the probe's time on the reference host to its mean time just before
// and just after the run.  That cancels the drift the probe sees too.
// A scale taken from the whole run's probes, rather than the ones around
// each run, left the long items of paper-artifacts less steady.
//
// The probe is the kind of work the simulator slowed down on: a
// register-bound integer loop plus random read-modify-writes over a table
// the size of a core's L2 cache.  Either part alone followed the
// simulator less well (a pointer chase through memory did worst), so the
// probe runs both.  Its table is walked once before the timed part, so
// what the preceding item left in the caches does not change its time.

const (
	// speedProbeWords sizes the probe's table at 2 MiB.
	speedProbeWords = 2 << 20 / 8
	// speedProbeSteps is the number of steps of each part; the probe
	// takes about 10 ms.
	speedProbeSteps = 2_000_000
	// speedProbeShare is the probes' CPU time as a share of the items'.
	speedProbeShare = 0.1
	// speedProbeRef is the probe's median CPU time, in seconds, on the
	// reference host (2 vCPUs of a shared Intel Xeon, KVM guest).
	speedProbeRef = 0.0100
)

// speedProbe is the probe's table.
type speedProbe []uint64

func newSpeedProbe() speedProbe {
	return make(speedProbe, speedProbeWords)
}

// run performs the probe's fixed work once and returns its CPU time in
// seconds.  The caller keeps the collector idle meanwhile, since the
// process's CPU time counts every thread.
func (p speedProbe) run() float64 {
	for i := range p {
		p[i]++
	}
	return measure(func() {
		x, acc := uint64(88172645463325252), uint64(0)
		for range speedProbeSteps {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&3 == 0 {
				acc += x >> 3
			} else {
				acc ^= x
			}
		}
		for range speedProbeSteps {
			acc = acc*6364136223846793005 + 1442695040888963407
			p[acc>>20%speedProbeWords] += acc
		}
	}).cpu.Seconds()
}
