// Package plot renders line charts and scatter plots as standalone SVG
// documents using only the standard library, so the experiment harness can
// regenerate the paper's figures as images (`jury plot`), not just rows.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted line or point set.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	Points bool // scatter instead of line
}

// Chart is a 2-D chart with axes, ticks, and a legend.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Width  int // pixels; default 640
	Height int // pixels; default 360
	// YMin/YMax optionally pin the y range (both zero = auto).
	YMin, YMax float64
}

// palette holds line colors (colorblind-safe Okabe-Ito subset).
var palette = []string{
	"#0072B2", "#D55E00", "#009E73", "#CC79A7",
	"#56B4E9", "#E69F00", "#000000", "#F0E442",
}

const (
	marginLeft   = 64
	marginRight  = 16
	marginTop    = 36
	marginBottom = 48
)

// SVG renders the chart. It never fails: degenerate data produces an empty
// grid with the title, which is the most debuggable output for a harness.
func (c *Chart) SVG() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 640
	}
	if h <= 0 {
		h = 360
	}
	plotW := float64(w - marginLeft - marginRight)
	plotH := float64(h - marginTop - marginBottom)

	xmin, xmax, ymin, ymax := c.bounds()

	xpix := func(x float64) float64 {
		if xmax == xmin {
			return marginLeft + plotW/2
		}
		return marginLeft + (x-xmin)/(xmax-xmin)*plotW
	}
	ypix := func(y float64) float64 {
		if ymax == ymin {
			return marginTop + plotH/2
		}
		return marginTop + plotH - (y-ymin)/(ymax-ymin)*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`,
		marginLeft, escape(c.Title))

	// Grid and ticks.
	for _, t := range ticks(xmin, xmax, 6) {
		px := xpix(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#dddddd"/>`,
			px, marginTop, px, marginTop+plotH)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`,
			px, marginTop+plotH+16, fmtTick(t))
	}
	for _, t := range ticks(ymin, ymax, 5) {
		py := ypix(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#dddddd"/>`,
			marginLeft, py, marginLeft+plotW, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`,
			marginLeft-6, py+4, fmtTick(t))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`,
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%.1f" stroke="black"/>`,
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`,
		marginLeft+plotW/2, h-10, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`,
		marginTop+plotH/2, marginTop+plotH/2, escape(c.YLabel))

	// Series.
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		if s.Points {
			for j := range s.X {
				if j < len(s.Y) && finite(s.X[j]) && finite(s.Y[j]) {
					fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s"/>`, xpix(s.X[j]), ypix(s.Y[j]), color)
				}
			}
		} else {
			var pts []string
			for j := range s.X {
				if j < len(s.Y) && finite(s.X[j]) && finite(s.Y[j]) {
					pts = append(pts, fmt.Sprintf("%.1f,%.1f", xpix(s.X[j]), ypix(s.Y[j])))
				}
			}
			if len(pts) > 1 {
				fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`,
					strings.Join(pts, " "), color)
			}
		}
		// Legend entry.
		lx := marginLeft + 8
		ly := marginTop + 10 + 16*i
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2.5"/>`,
			lx, ly, lx+18, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`,
			lx+24, ly+4, escape(s.Name))
	}

	b.WriteString(`</svg>`)
	return b.String()
}

// bounds computes the data extents, honouring pinned Y limits.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			if i >= len(s.Y) || !finite(s.X[i]) || !finite(s.Y[i]) {
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) { // no data
		xmin, xmax, ymin, ymax = 0, 1, 0, 1
	}
	if c.YMin != 0 || c.YMax != 0 {
		ymin, ymax = c.YMin, c.YMax
	}
	if ymin == ymax {
		ymin, ymax = ymin-1, ymax+1
	}
	if xmin == xmax {
		xmin, xmax = xmin-1, xmax+1
	}
	return
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ticks returns ~n round tick positions covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 || hi <= lo {
		return []float64{lo}
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step/1e6; t += step {
		out = append(out, t)
	}
	return out
}

// fmtTick renders a tick value compactly.
func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	case av < 0.01:
		return fmt.Sprintf("%.1e", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
