// Package render draws grids and mission traces as ASCII maps, the
// lightest-weight analogue of the TMPLAR front-end's global view: a
// terminal-sized chart of the operating area with asset tracks, the
// destination, and exclusion zones.
package render

import (
	"fmt"
	"strings"

	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
)

// Options sizes and decorates the map.
type Options struct {
	// Width and Height of the character canvas. Zero selects 72x24.
	Width  int
	Height int
	// ShowNodes plots every grid node as '.'.
	ShowNodes bool
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 24
	}
	return o
}

// canvas maps grid coordinates onto a character raster.
type canvas struct {
	w, h   int
	cells  [][]byte
	bounds geo.Rect
}

func newCanvas(b geo.Rect, o Options) *canvas {
	c := &canvas{w: o.Width, h: o.Height, bounds: b}
	c.cells = make([][]byte, c.h)
	for y := range c.cells {
		c.cells[y] = []byte(strings.Repeat(" ", c.w))
	}
	return c
}

// plot writes ch at the raster cell of p; higher-priority glyphs are
// written later by callers, so plain overwrite is the intended semantics.
// An axis along which every node shares one coordinate, as on a line
// grid, maps to the canvas's middle column or row.
func (c *canvas) plot(p geo.Point, ch byte) {
	x, y := (c.w-1)/2, (c.h-1)/2
	if w := c.bounds.Width(); w > 0 {
		x = int((p.X - c.bounds.MinX) / w * float64(c.w-1))
	}
	// Y axis is flipped: north up.
	if h := c.bounds.Height(); h > 0 {
		y = int((c.bounds.MaxY - p.Y) / h * float64(c.h-1))
	}
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return
	}
	c.cells[y][x] = ch
}

func (c *canvas) String() string {
	var b strings.Builder
	border := "+" + strings.Repeat("-", c.w) + "+\n"
	b.WriteString(border)
	for _, row := range c.cells {
		b.WriteByte('|')
		b.Write(row)
		b.WriteString("|\n")
	}
	b.WriteString(border)
	return b.String()
}

// assetGlyph labels assets 0..9 then a..z.
func assetGlyph(i int) byte {
	if i < 10 {
		return byte('0' + i)
	}
	if i < 36 {
		return byte('a' + i - 10)
	}
	return '?'
}

// Mission renders a finished (or in-flight) trace over its grid: node dots
// (optional), obstacles as '#', asset tracks as '·' with current positions
// as digits, and the destination as 'X'. A dest outside the grid, such as
// grid.None for an unknown destination, draws no 'X'.
func Mission(g *grid.Grid, tr *sim.Trace, obstacles []grid.NodeID, dest grid.NodeID, o Options) string {
	o = o.withDefaults()
	c := newCanvas(g.Bounds(), o)

	if o.ShowNodes {
		for v := 0; v < g.NumNodes(); v++ {
			c.plot(g.Pos(grid.NodeID(v)), '.')
		}
	}
	for _, v := range obstacles {
		c.plot(g.Pos(v), '#')
	}
	// Tracks: every recorded position, oldest first.
	for _, ep := range tr.Epochs {
		for _, p := range ep.Positions {
			c.plot(p, '*')
		}
	}
	// Destination and final positions on top.
	if dest >= 0 && int(dest) < g.NumNodes() {
		c.plot(g.Pos(dest), 'X')
	}
	if n := len(tr.Epochs); n > 0 {
		last := tr.Epochs[n-1]
		for i, p := range last.Positions {
			c.plot(p, assetGlyph(i))
		}
	}

	var b strings.Builder
	b.WriteString(c.String())
	fmt.Fprintf(&b, "grid %s  |V|=%d  assets=%d  epochs=%d",
		g.Name(), g.NumNodes(), tr.Assets, len(tr.Epochs))
	if tr.Outcome != nil {
		fmt.Fprintf(&b, "  outcome: %v", *tr.Outcome)
	}
	b.WriteByte('\n')
	return b.String()
}

// Grid renders just the grid and obstacles (no trace).
func Grid(g *grid.Grid, obstacles []grid.NodeID, o Options) string {
	o = o.withDefaults()
	o.ShowNodes = true
	c := newCanvas(g.Bounds(), o)
	for v := 0; v < g.NumNodes(); v++ {
		c.plot(g.Pos(grid.NodeID(v)), '.')
	}
	for _, v := range obstacles {
		c.plot(g.Pos(v), '#')
	}
	var b strings.Builder
	b.WriteString(c.String())
	fmt.Fprintf(&b, "grid %s  |V|=%d |E|=%d\n", g.Name(), g.NumNodes(), g.NumEdges())
	return b.String()
}
