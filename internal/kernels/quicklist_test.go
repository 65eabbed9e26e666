package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// TestChunkSeqMatchesSlice drives chunkSeq and a plain slice through
// the same random inserts, removes and reads: growth past several chunk
// splits, churn at a steady size, then a drain that empties chunks,
// and a refill of the drained sequence.
func TestChunkSeqMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s chunkSeq
	var model []ir.Val
	next := uint32(1)

	check := func(step string) {
		t.Helper()
		if s.Len() != len(model) {
			t.Fatalf("%s: Len %d, want %d", step, s.Len(), len(model))
		}
		total := 0
		for _, c := range s.chunks {
			if len(c) > 2*seqChunk || (len(c) == 0 && len(s.chunks) > 1) {
				t.Fatalf("%s: chunk of %d elements", step, len(c))
			}
			total += len(c)
		}
		if total != len(model) {
			t.Fatalf("%s: chunks hold %d elements, want %d", step, total, len(model))
		}
		for range 16 {
			if len(model) == 0 {
				break
			}
			i := r.Intn(len(model))
			if got := s.At(i); got != model[i] {
				t.Fatalf("%s: At(%d) = %v, want %v", step, i, got, model[i])
			}
		}
	}
	insert := func() {
		pos := r.Intn(len(model) + 1)
		v := ir.Imm(next)
		next++
		s.Insert(pos, v)
		model = append(model, ir.Val{})
		copy(model[pos+1:], model[pos:])
		model[pos] = v
	}
	remove := func() {
		pos := r.Intn(len(model))
		s.Remove(pos)
		model = append(model[:pos], model[pos+1:]...)
	}

	for phase := range 2 {
		for len(model) < 6*seqChunk {
			insert()
			check("grow")
		}
		for range 4000 {
			insert()
			remove()
			check("churn")
		}
		for len(model) > 0 {
			remove()
			check("drain")
		}
		if phase == 0 && len(s.chunks) != 1 {
			t.Fatalf("drained sequence keeps %d chunks", len(s.chunks))
		}
	}
	// Appends only, as quicklist's build does, then a full ordered read.
	for i := range 5 * seqChunk {
		v := ir.Imm(uint32(i))
		s.Insert(i, v)
		model = append(model, v)
	}
	for i, want := range model {
		if got := s.At(i); got != want {
			t.Fatalf("append: At(%d) = %v, want %v", i, got, want)
		}
	}
}
