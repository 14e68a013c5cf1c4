// Command visualize renders the paper's two-dimensional geometry to
// SVG: the dataset, the orthotope convex hull, the candidate sets,
// the k-regret answer and (optionally) one point's subjugation tent.
//
// Usage:
//
//	visualize -out scene.svg                 # the Figure 1 running example
//	visualize -in data.csv -k 5 -out q.svg   # your own 2-d CSV data
//	visualize -tent 2 -out tent.svg          # draw Y(p3) like Figure 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
	"repro/internal/viz"
)

// runningExample mirrors internal/core's reconstruction of the
// paper's Figure 1 configuration.
var runningExample = []geom.Vector{
	{0.55, 0.90}, {0.65, 0.72}, {0.75, 0.70}, {0.82, 0.55},
	{0.90, 0.45}, {1.00, 0.10}, {0.20, 1.00},
}

func main() {
	var (
		in   = flag.String("in", "", "2-d CSV input (default: the paper's running example)")
		out  = flag.String("out", "scene.svg", "output SVG path")
		k    = flag.Int("k", 3, "answer size to highlight (0 disables)")
		tent = flag.Int("tent", -1, "draw the subjugation tent Y(p) of this point index (-1 disables)")
		size = flag.Int("size", 640, "canvas size in pixels")
	)
	flag.Parse()
	if err := run(*in, *out, *k, *tent, *size); err != nil {
		fmt.Fprintf(os.Stderr, "visualize: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out string, k, tent, size int) error {
	pts := runningExample
	if in != "" {
		raw, err := dataset.ReadCSVFile(in)
		if err != nil {
			return err
		}
		norm, err := dataset.Normalize(raw)
		if err != nil {
			return err
		}
		pts = norm
	}
	if len(pts) == 0 || len(pts[0]) != 2 {
		return fmt.Errorf("need non-empty 2-dimensional data, got %d-d", len(pts[0]))
	}

	scene := viz.NewScene(size)
	scene.AddAxes()

	sky, err := skyline.Of(pts)
	if err != nil {
		return err
	}
	hp := happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
	inHappy := map[int]bool{}
	for _, i := range hp {
		inHappy[i] = true
	}

	if err := scene.AddHullBoundary(pts, "#7aa6c2"); err != nil {
		return err
	}
	scene.AddLegend("#7aa6c2", "Conv(D) boundary")

	var plain, skyOnly, happyPts []geom.Vector
	for i, p := range pts {
		switch {
		case inHappy[i]:
			happyPts = append(happyPts, p)
		case contains(sky, i):
			skyOnly = append(skyOnly, p)
		default:
			plain = append(plain, p)
		}
	}
	if err := scene.AddPoints(plain, "#bbbbbb", 2.5, false); err != nil {
		return err
	}
	scene.AddLegend("#bbbbbb", "dominated points")
	if err := scene.AddPoints(skyOnly, "#e6a23c", 3.5, false); err != nil {
		return err
	}
	scene.AddLegend("#e6a23c", "skyline, not happy")
	if err := scene.AddPoints(happyPts, "#2b8a3e", 4, len(pts) <= 12); err != nil {
		return err
	}
	scene.AddLegend("#2b8a3e", "happy points")

	if tent >= 0 {
		if tent >= len(pts) {
			return fmt.Errorf("tent index %d out of range (n=%d)", tent, len(pts))
		}
		planes, err := happy.EnumeratePlanes(pts[tent])
		if err != nil {
			return err
		}
		scene.AddTent(planes, "#c0392b")
		scene.AddLegend("#c0392b", fmt.Sprintf("tent Y(p%d)", tent+1))
	}

	if k > 0 {
		res, err := core.GeoGreedy(pts, k)
		if err != nil {
			return err
		}
		var sel []geom.Vector
		for _, i := range res.Indices {
			sel = append(sel, pts[i])
			if err := scene.AddRay(pts[i], "#845ef7"); err != nil {
				return err
			}
		}
		if err := scene.AddPoints(sel, "#845ef7", 6, false); err != nil {
			return err
		}
		scene.AddLegend("#845ef7", fmt.Sprintf("GeoGreedy answer (k=%d, mrr %.3f)", k, res.MRR))
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if _, err := scene.WriteTo(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
