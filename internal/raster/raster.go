// Package raster maps wavefront lanes to domain coordinates, in the two
// orders the paper contrasts. Pixel shader mode walks the domain the way
// the hardware rasterizer does — in 8x8 screen tiles, each wavefront
// covering one tile as sixteen 2x2 quads — which matches the tiled layout
// of textures in memory and therefore the texture cache. Compute shader
// mode is linear: the programmer picks a block shape, and the naive 64x1
// block the paper uses by default walks one long row per wavefront, while
// the optimized 4x16 block recovers two-dimensional locality (Figs. 7/8).
//
// The package also defines the tiled texture address layout that the cache
// model replays fetch traces against.
package raster

import (
	"fmt"

	"amdgpubench/internal/il"
)

// TileDim is the edge of the rasterizer/texture micro-tile in texels. One
// wavefront in pixel shader mode covers exactly one 8x8 tile.
const TileDim = 8

// WavefrontSize is the number of threads per wavefront on every chip the
// suite targets.
const WavefrontSize = 64

// Order describes one walk of a 2D domain.
type Order struct {
	Mode   il.ShaderMode
	BlockW int // compute-mode block width (threads)
	BlockH int // compute-mode block height
}

// PixelOrder returns the rasterizer's tiled walk.
func PixelOrder() Order { return Order{Mode: il.Pixel, BlockW: TileDim, BlockH: TileDim} }

// ComputeOrder returns a linear compute-mode walk with the given block
// shape. The block must hold exactly one wavefront (64 threads), as in the
// paper's 64x1 and 4x16 configurations.
func ComputeOrder(bw, bh int) (Order, error) {
	if bw <= 0 || bh <= 0 || bw*bh != WavefrontSize {
		return Order{}, fmt.Errorf("raster: block %dx%d does not hold one %d-thread wavefront", bw, bh, WavefrontSize)
	}
	return Order{Mode: il.Compute, BlockW: bw, BlockH: bh}, nil
}

// Naive64x1 is the paper's default compute-mode block.
func Naive64x1() Order {
	o, _ := ComputeOrder(64, 1)
	return o
}

// Block4x16 is the paper's optimized compute-mode block.
func Block4x16() Order {
	o, _ := ComputeOrder(4, 16)
	return o
}

// String names the order, e.g. "pixel(8x8 tiles)" or "compute(64x1)".
func (o Order) String() string {
	if o.Mode == il.Pixel {
		return "pixel(8x8 tiles)"
	}
	return fmt.Sprintf("compute(%dx%d)", o.BlockW, o.BlockH)
}

// padded rounds v up to a multiple of m.
func padded(v, m int) int { return (v + m - 1) / m * m }

// WavefrontCount returns how many wavefronts cover a WxH domain. Compute
// mode pads each block dimension up (the paper: "the compute shader mode
// requires that the elements be padded to 64"); pixel mode pads to tiles.
func (o Order) WavefrontCount(w, h int) int {
	if o.Mode == il.Pixel {
		return (padded(w, TileDim) / TileDim) * (padded(h, TileDim) / TileDim)
	}
	return (padded(w, o.BlockW) / o.BlockW) * (padded(h, o.BlockH) / o.BlockH)
}

// Thread returns the domain coordinates of one lane of one wavefront.
// Coordinates may fall outside the domain when the walk pads; callers that
// generate memory traces clamp or skip those threads.
func (o Order) Thread(w, h, wave, lane int) (x, y int) {
	if o.Mode == il.Pixel {
		tilesPerRow := padded(w, TileDim) / TileDim
		tx, ty := wave%tilesPerRow, wave/tilesPerRow
		// Lanes form sixteen 2x2 quads, quad-major across the tile.
		quad, qlane := lane/4, lane%4
		qx, qy := quad%(TileDim/2), quad/(TileDim/2)
		return tx*TileDim + qx*2 + qlane%2, ty*TileDim + qy*2 + qlane/2
	}
	blocksPerRow := padded(w, o.BlockW) / o.BlockW
	bx, by := wave%blocksPerRow, wave/blocksPerRow
	return bx*o.BlockW + lane%o.BlockW, by*o.BlockH + lane/o.BlockW
}

// Layout describes a tiled texture: elements stored in TileDim x TileDim
// tiles, tiles row-major across the (padded) surface. This is the layout
// the texture cache sees; pixel-mode wavefronts touch one tile each, while
// a 64x1 compute wavefront touches the top row of eight different tiles —
// the mechanism behind the paper's "only half the cache is used" remark.
type Layout struct {
	W, H      int // element dimensions (padded internally)
	ElemBytes int
	Base      uint64 // base address of the surface
}

// Address returns the byte address of element (x, y).
func (l Layout) Address(x, y int) uint64 {
	tilesPerRow := padded(l.W, TileDim) / TileDim
	tx, ty := x/TileDim, y/TileDim
	lx, ly := x%TileDim, y%TileDim
	tile := ty*tilesPerRow + tx
	idx := tile*TileDim*TileDim + ly*TileDim + lx
	return l.Base + uint64(idx*l.ElemBytes)
}

// LinearAddress returns the byte address of element (x, y) under a plain
// row-major layout, which is how uncached global buffers are addressed.
func (l Layout) LinearAddress(x, y int) uint64 {
	return l.Base + uint64((y*l.W+x)*l.ElemBytes)
}

// SizeBytes returns the padded surface size.
func (l Layout) SizeBytes() int {
	return padded(l.W, TileDim) * padded(l.H, TileDim) * l.ElemBytes
}
