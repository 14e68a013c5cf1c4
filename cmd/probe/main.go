// Command probe is a development tool for calibrating the real-data
// stand-ins and sizing the geometric structures: it reports |D_sky|,
// |D_happy| and |D_conv| for a named stand-in or an explicit
// star/plate mixture, and can time StoredList preprocessing.
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/happy"
	"repro/internal/skyline"
)

func report(pts []geom.Vector) {
	t0 := time.Now()
	sky, err := skyline.Of(pts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  sky=%d (%v)\n", len(sky), time.Since(t0))
	t0 = time.Now()
	hp := happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
	fmt.Printf("  happy=%d (%v)\n", len(hp), time.Since(t0))
	t0 = time.Now()
	conv, err := core.ConvexAmongHappy(pts, hp)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  conv=%d (%v)\n", len(conv), time.Since(t0))
}

func main() {
	switch os.Args[1] {
	case "tune":
		// probe tune n d stars jitter plate alphaLo alphaHi bulk
		geti := func(i int) int { v, _ := strconv.Atoi(os.Args[i]); return v }
		getf := func(i int) float64 { v, _ := strconv.ParseFloat(os.Args[i], 64); return v }
		n, d := geti(2), geti(3)
		cfg := dataset.StarPlateConfig{
			Stars: geti(4), Jitter: getf(5), Plate: geti(6), Bulk: getf(9),
		}
		for a := getf(7); a <= getf(8)+1e-9; a += 0.1 {
			cfg.Alpha = a
			pts, err := dataset.StarPlate(n, d, 12345, cfg)
			if err != nil {
				panic(err)
			}
			fmt.Printf("alpha=%.2f\n", a)
			report(pts)
		}
	case "stored":
		// probe stored <dataset> <n>: time StoredList preprocessing
		// over the happy points.
		n, _ := strconv.Atoi(os.Args[3])
		pts, err := dataset.RealScaled(dataset.RealName(os.Args[2]), n)
		if err != nil {
			panic(err)
		}
		sky, _ := skyline.Of(pts)
		hp := happy.ComputeAmongSkylineCertParallel(pts, sky, 1).HappyPoints()
		cand, _ := core.Select(pts, hp)
		fmt.Printf("happy=%d\n", len(cand))
		t0 := time.Now()
		list, err := core.BuildStoredList(cand)
		if err != nil {
			panic(err)
		}
		fmt.Printf("stored list len=%d built in %v\n", list.Len(), time.Since(t0))
	default:
		n, _ := strconv.Atoi(os.Args[2])
		name := dataset.RealName(os.Args[1])
		t0 := time.Now()
		pts, err := dataset.RealScaled(name, n)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s n=%d gen=%v\n", name, len(pts), time.Since(t0))
		report(pts)
	}
}
