package raster

import (
	"testing"
	"testing/quick"

	"amdgpubench/internal/il"
)

func TestComputeOrderValidation(t *testing.T) {
	if _, err := ComputeOrder(0, 64); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := ComputeOrder(8, 16); err == nil {
		t.Error("128-thread block accepted")
	}
	if o, err := ComputeOrder(4, 16); err != nil || o.BlockW != 4 || o.BlockH != 16 {
		t.Errorf("4x16 rejected: %v", err)
	}
}

func TestOrderStrings(t *testing.T) {
	if PixelOrder().String() != "pixel(8x8 tiles)" {
		t.Error("pixel order name")
	}
	if Naive64x1().String() != "compute(64x1)" {
		t.Error("64x1 order name")
	}
	if Block4x16().String() != "compute(4x16)" {
		t.Error("4x16 order name")
	}
}

func TestWavefrontCount(t *testing.T) {
	cases := []struct {
		o    Order
		w, h int
		want int
	}{
		{PixelOrder(), 1024, 1024, 128 * 128},
		{PixelOrder(), 8, 8, 1},
		{PixelOrder(), 9, 8, 2}, // padded to two tiles wide
		{Naive64x1(), 1024, 1024, 16 * 1024},
		{Naive64x1(), 65, 1, 2}, // padded to 128 wide
		{Block4x16(), 1024, 1024, 256 * 64},
		{Block4x16(), 4, 16, 1},
	}
	for _, c := range cases {
		if got := c.o.WavefrontCount(c.w, c.h); got != c.want {
			t.Errorf("%v over %dx%d: waves = %d, want %d", c.o, c.w, c.h, got, c.want)
		}
	}
}

// TestThreadCoverage: every domain position is visited exactly once when
// the domain tiles evenly — a property check over all three orders.
func TestThreadCoverage(t *testing.T) {
	const w, h = 64, 32
	for _, o := range []Order{PixelOrder(), Naive64x1(), Block4x16()} {
		seen := make(map[[2]int]int)
		waves := o.WavefrontCount(w, h)
		for wv := 0; wv < waves; wv++ {
			for lane := 0; lane < WavefrontSize; lane++ {
				x, y := o.Thread(w, h, wv, lane)
				if x < 0 || x >= w || y < 0 || y >= h {
					t.Fatalf("%v: thread (%d,%d) outside evenly-tiled domain", o, x, y)
				}
				seen[[2]int{x, y}]++
			}
		}
		if len(seen) != w*h {
			t.Fatalf("%v: covered %d positions, want %d", o, len(seen), w*h)
		}
		for pos, n := range seen {
			if n != 1 {
				t.Fatalf("%v: position %v visited %d times", o, pos, n)
			}
		}
	}
}

func TestPixelWavefrontIsOneTile(t *testing.T) {
	o := PixelOrder()
	for lane := 0; lane < WavefrontSize; lane++ {
		x, y := o.Thread(1024, 1024, 0, lane)
		if x >= TileDim || y >= TileDim {
			t.Fatalf("lane %d at (%d,%d) escapes the first 8x8 tile", lane, x, y)
		}
	}
	// Second wavefront is the next tile to the right.
	x, y := o.Thread(1024, 1024, 1, 0)
	if x != TileDim || y != 0 {
		t.Fatalf("wave 1 lane 0 at (%d,%d), want (8,0)", x, y)
	}
}

func TestPixelQuadStructure(t *testing.T) {
	// Lanes 0..3 form a 2x2 quad.
	o := PixelOrder()
	want := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	for lane := 0; lane < 4; lane++ {
		x, y := o.Thread(64, 64, 0, lane)
		if x != want[lane][0] || y != want[lane][1] {
			t.Errorf("lane %d at (%d,%d), want %v", lane, x, y, want[lane])
		}
	}
}

func Test64x1WavefrontIsOneRow(t *testing.T) {
	o := Naive64x1()
	for lane := 0; lane < WavefrontSize; lane++ {
		x, y := o.Thread(1024, 1024, 0, lane)
		if x != lane || y != 0 {
			t.Fatalf("lane %d at (%d,%d), want (%d,0)", lane, x, y, lane)
		}
	}
}

func Test4x16WavefrontShape(t *testing.T) {
	o := Block4x16()
	minX, maxX, minY, maxY := 1<<30, -1, 1<<30, -1
	for lane := 0; lane < WavefrontSize; lane++ {
		x, y := o.Thread(1024, 1024, 0, lane)
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	if minX != 0 || maxX != 3 || minY != 0 || maxY != 15 {
		t.Fatalf("4x16 wavefront bounds x[%d,%d] y[%d,%d]", minX, maxX, minY, maxY)
	}
}

func TestOrderModes(t *testing.T) {
	if PixelOrder().Mode != il.Pixel || Naive64x1().Mode != il.Compute {
		t.Error("order modes wrong")
	}
}

func TestTiledAddressBijective(t *testing.T) {
	l := Layout{W: 32, H: 24, ElemBytes: 4, Base: 1 << 20}
	seen := make(map[uint64]bool)
	for y := 0; y < l.H; y++ {
		for x := 0; x < l.W; x++ {
			a := l.Address(x, y)
			if seen[a] {
				t.Fatalf("address collision at (%d,%d)", x, y)
			}
			seen[a] = true
			if a < l.Base || a >= l.Base+uint64(l.SizeBytes()) {
				t.Fatalf("address %d outside surface", a)
			}
			if a%uint64(l.ElemBytes) != 0 {
				t.Fatalf("misaligned address %d", a)
			}
		}
	}
}

func TestTiledAddressLocality(t *testing.T) {
	// All 64 elements of one 8x8 tile are contiguous — a pixel-mode
	// wavefront touches exactly tileBytes consecutive bytes.
	l := Layout{W: 64, H: 64, ElemBytes: 4}
	lo, hi := ^uint64(0), uint64(0)
	for y := 0; y < TileDim; y++ {
		for x := 0; x < TileDim; x++ {
			a := l.Address(x, y)
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
	}
	if hi-lo != uint64(TileDim*TileDim*4-4) {
		t.Fatalf("tile spans [%d,%d], not contiguous", lo, hi)
	}
}

func TestLinearAddress(t *testing.T) {
	l := Layout{W: 16, H: 4, ElemBytes: 4, Base: 100}
	if l.LinearAddress(0, 0) != 100 {
		t.Error("base wrong")
	}
	if l.LinearAddress(3, 2) != 100+uint64((2*16+3)*4) {
		t.Error("row-major arithmetic wrong")
	}
}

func TestThreadQuickProperties(t *testing.T) {
	// Any lane of any wave maps inside the padded surface.
	o := Block4x16()
	f := func(wave uint8, lane uint8) bool {
		x, y := o.Thread(256, 256, int(wave)%o.WavefrontCount(256, 256), int(lane)%64)
		return x >= 0 && x < 256 && y >= 0 && y < 256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
