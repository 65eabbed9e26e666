package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/olden"
)

// FuzzParseArgs throws arbitrary strings at the three parsers behind
// jppsim's -scheme, -idiom and -size: they must either return a value
// or an error, never panic, and must stay strict (no silently
// accepting junk as a default).
func FuzzParseArgs(f *testing.F) {
	for _, s := range []string{"", "none", "coop", "hardware", "queue", "full", "test", "TEST", "смалл", "c\x00op"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if _, err := core.ParseScheme(s); err == nil {
			switch s {
			case "none", "dbp", "sw", "software", "coop", "cooperative", "hw", "hardware":
			default:
				t.Errorf("ParseScheme(%q) accepted junk", s)
			}
		}
		if _, err := core.ParseIdiom(s); err == nil {
			switch s {
			case "", "queue", "full", "chain", "root":
			default:
				t.Errorf("ParseIdiom(%q) accepted junk", s)
			}
		}
		if _, err := olden.ParseSize(s); err == nil {
			switch s {
			case "test", "small", "full", "large":
			default:
				t.Errorf("ParseSize(%q) accepted junk", s)
			}
		}
	})
}
