package nn

import (
	"math/rand"
	"testing"
)

// The batched kernels carry the same two-part contract as the scalar into
// kernels: steady-state calls allocate nothing, and every output row is
// bit-identical to the scalar kernel applied to the corresponding input
// row. The differential tests sweep random shapes including the rows = 0
// and rows = 1 edge cases the tracker hits on empty and single-track
// frames.

func TestDenseApplyBatchIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		in := 1 + rng.Intn(40)
		out := 1 + rng.Intn(40)
		rows := rng.Intn(9) // includes 0 and 1
		d := NewDense(in, out, Activation(rng.Intn(4)), rng)
		x := randVec(rng, rows*in)
		got := d.ApplyBatchInto(NewVec(rows*out), x, rows)
		for b := 0; b < rows; b++ {
			want := d.ApplyInto(NewVec(out), x[b*in:(b+1)*in])
			requireEqualVecs(t, "Dense.ApplyBatchInto row", got[b*out:(b+1)*out], want)
		}
	}
}

func TestGRUStepBatchInferIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var bs BatchScratch
	for trial := 0; trial < 30; trial++ {
		in := 1 + rng.Intn(12)
		n := 1 + rng.Intn(24)
		rows := rng.Intn(7) // includes 0 and 1
		g := NewGRUCell(in, n, rng)
		h := randVec(rng, rows*n)
		x := randVec(rng, rows*in)
		got := g.StepBatchInferInto(NewVec(rows*n), h, x, rows, &bs)
		var s Scratch
		for b := 0; b < rows; b++ {
			want := g.StepInferInto(NewVec(n), h[b*n:(b+1)*n], x[b*in:(b+1)*in], &s)
			requireEqualVecs(t, "GRUCell.StepBatchInferInto row", got[b*n:(b+1)*n], want)
		}

		// In-place: dst aliasing h must produce the same states.
		hc := h.Clone()
		g.StepBatchInferInto(hc, hc, x, rows, &bs)
		requireEqualVecs(t, "GRUCell.StepBatchInferInto in-place", hc, got)
	}
}

// TestFloat64BatchedXReuseBitIdentical pins the batched GRU kernel, which
// assembles [r*h, x] in its hx buffer and copies each row's x in once, to the
// scalar reference bit-for-bit on a fixed cell shape over 0-11 rows.
func TestFloat64BatchedXReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := NewGRUCell(7, 16, rng)
	var bs BatchScratch
	var ss Scratch
	for trial := 0; trial < 30; trial++ {
		rows := rng.Intn(12)
		h := randVec(rng, rows*16)
		x := randVec(rng, rows*7)
		want := NewVec(rows * 16)
		for b := 0; b < rows; b++ {
			g.StepInferInto(want[b*16:(b+1)*16], h[b*16:(b+1)*16], x[b*7:(b+1)*7], &ss)
		}
		got := g.StepBatchInferInto(NewVec(rows*16), h, x, rows, &bs)
		requireEqualVecs(t, "gru batch x-reuse", got, want)
	}
}

func TestDenseApplyBatchIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := NewDense(23, 16, SigmoidAct, rng)
	const rows = 12
	x := randVec(rng, rows*23)
	dst := NewVec(rows * 16)
	if n := testing.AllocsPerRun(100, func() { d.ApplyBatchInto(dst, x, rows) }); n != 0 {
		t.Errorf("Dense.ApplyBatchInto allocates %v per op, want 0", n)
	}
}

func TestGRUStepBatchInferIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := NewGRUCell(7, 16, rng)
	const rows = 12
	h := randVec(rng, rows*16)
	x := randVec(rng, rows*7)
	var s BatchScratch
	g.StepBatchInferInto(h, h, x, rows, &s) // warm the scratch buffers
	if n := testing.AllocsPerRun(100, func() { g.StepBatchInferInto(h, h, x, rows, &s) }); n != 0 {
		t.Errorf("GRUCell.StepBatchInferInto allocates %v per op, want 0", n)
	}
	// A smaller batch after a larger one reuses the grown buffers.
	if n := testing.AllocsPerRun(100, func() { g.StepBatchInferInto(h[:3*16], h[:3*16], x[:3*7], 3, &s) }); n != 0 {
		t.Errorf("GRUCell.StepBatchInferInto (shrunk batch) allocates %v per op, want 0", n)
	}
}

func BenchmarkDenseApplyBatchInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(32, 32, ReLUAct, rng)
	const rows = 16
	x := randVec(rng, rows*32)
	dst := NewVec(rows * 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ApplyBatchInto(dst, x, rows)
	}
}

// BenchmarkDenseApplyIntoPerRow is the scalar reference for
// BenchmarkDenseApplyBatchInto: the same 16 rows applied one at a time.
func BenchmarkDenseApplyIntoPerRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(32, 32, ReLUAct, rng)
	const rows = 16
	x := randVec(rng, rows*32)
	dst := NewVec(rows * 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rows; r++ {
			d.ApplyInto(dst[r*32:(r+1)*32], x[r*32:(r+1)*32])
		}
	}
}

func BenchmarkGRUStepBatchInferInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGRUCell(7, 16, rng)
	const rows = 16
	h := randVec(rng, rows*16)
	x := randVec(rng, rows*7)
	var s BatchScratch
	g.StepBatchInferInto(h, h, x, rows, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.StepBatchInferInto(h, h, x, rows, &s)
	}
}

// BenchmarkGRUStepInferIntoPerRow is the scalar reference for
// BenchmarkGRUStepBatchInferInto: the same 16 tracks stepped one at a time.
func BenchmarkGRUStepInferIntoPerRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGRUCell(7, 16, rng)
	const rows = 16
	h := randVec(rng, rows*16)
	x := randVec(rng, rows*7)
	var s Scratch
	g.StepInferInto(h[:16], h[:16], x[:7], &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rows; r++ {
			g.StepInferInto(h[r*16:(r+1)*16], h[r*16:(r+1)*16], x[r*7:(r+1)*7], &s)
		}
	}
}
