// Package core implements the paper's primary contribution: the
// jump-pointer prefetching (JPP) framework.
//
// The framework combines two building blocks — jump-pointer prefetches
// and chained prefetches — into four idioms (queue, full, chain and
// root jumping, paper §2.2) and three implementations (software,
// cooperative and hardware, §3):
//
//   - software: workload kernels emit jump-pointer creation code (the
//     queue method, via SWJumpQueue), jump-pointer prefetches and
//     software chained prefetches;
//   - cooperative: kernels emit only streamlined jump-pointer
//     prefetches (single non-binding loads flagged ir.FJumpChase); the
//     DBP hardware chains from them;
//   - hardware: no kernel changes; the HWEngine in this package
//     implements the queue method in the Jump Queue Table (JQT), stores
//     jump-pointers in allocator padding, retrieves them through the
//     Jump-pointer Register (JPR) on recurrent-load issue, and lets the
//     DBP machinery chain-prefetch the "ribs".
package core

import "fmt"

// Idiom selects a jump-pointer prefetching idiom (paper §2.2).
type Idiom uint8

// Idioms.
const (
	// IdiomNone applies no prefetching transformation.
	IdiomNone Idiom = iota
	// IdiomQueue prefetches a backbone-only structure through
	// jump-pointers installed with the queue method.
	IdiomQueue
	// IdiomFull fits every node with jump-pointers to a future node and
	// to that node's rib(s); all prefetches are jump-pointer prefetches.
	IdiomFull
	// IdiomChain keeps only the backbone jump-pointer and reaches ribs
	// with chained prefetches through it.
	IdiomChain
	// IdiomRoot prefetches an entire small structure in chained fashion
	// from a single jump-pointer to its root.
	IdiomRoot
)

func (i Idiom) String() string {
	switch i {
	case IdiomNone:
		return "none"
	case IdiomQueue:
		return "queue"
	case IdiomFull:
		return "full"
	case IdiomChain:
		return "chain"
	case IdiomRoot:
		return "root"
	}
	return fmt.Sprintf("idiom(%d)", uint8(i))
}

// ParseIdiom inverts String for the four idioms.  The empty string
// selects IdiomNone, which kernels read as "the benchmark's
// representative idiom"; "none" is rejected so a flag cannot suggest
// that it disables the idiom.
func ParseIdiom(s string) (Idiom, error) {
	switch s {
	case "":
		return IdiomNone, nil
	case "queue":
		return IdiomQueue, nil
	case "full":
		return IdiomFull, nil
	case "chain":
		return IdiomChain, nil
	case "root":
		return IdiomRoot, nil
	}
	return 0, fmt.Errorf("unknown idiom %q", s)
}

// Scheme selects a prefetching implementation (paper §3).
type Scheme uint8

// Schemes.
const (
	// SchemeNone is the unoptimized baseline.
	SchemeNone Scheme = iota
	// SchemeDBP is dependence-based prefetching, the paper's hardware
	// baseline without jump-pointers.
	SchemeDBP
	// SchemeSoftware implements the selected idiom entirely in software.
	SchemeSoftware
	// SchemeCooperative does jump-pointer prefetching in software and
	// chained prefetching in hardware.
	SchemeCooperative
	// SchemeHardware implements chain jumping entirely in hardware
	// (JQT + JPR + padding storage + DBP chaining).
	SchemeHardware
)

func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeDBP:
		return "dbp"
	case SchemeSoftware:
		return "sw"
	case SchemeCooperative:
		return "coop"
	case SchemeHardware:
		return "hw"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// ParseScheme inverts String, and also accepts the long names
// software, cooperative and hardware.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "none":
		return SchemeNone, nil
	case "dbp":
		return SchemeDBP, nil
	case "sw", "software":
		return SchemeSoftware, nil
	case "coop", "cooperative":
		return SchemeCooperative, nil
	case "hw", "hardware":
		return SchemeHardware, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

// UsesSoftwareIdiom reports whether kernels must emit idiom code for s.
func (s Scheme) UsesSoftwareIdiom() bool {
	return s == SchemeSoftware || s == SchemeCooperative
}

// Schemes lists all schemes in presentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeNone, SchemeDBP, SchemeSoftware, SchemeCooperative, SchemeHardware}
}

// DefaultInterval is the jump-pointer queue interval used throughout
// the paper's evaluation (8 nodes).
const DefaultInterval = 8
