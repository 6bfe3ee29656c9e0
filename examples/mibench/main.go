// Mibench sweeps the 12-program MiBench-substitute suite over all three
// SPM structures (pure SRAM, pure STT-RAM, FTSPM) and regenerates the
// Section V figures: per-benchmark region distribution (Fig. 4),
// vulnerability (Fig. 5), static and dynamic energy (Figs. 6-7),
// endurance (Fig. 8), and the performance comparison.
//
// Run with:
//
//	go run ./examples/mibench [-scale 0.15]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ftspm"
	"ftspm/internal/experiments"
	"ftspm/internal/report"
)

func main() {
	scale := flag.Float64("scale", 0.15, "trace length relative to the reference")
	flag.Parse()
	if err := run(*scale); err != nil {
		log.Fatal(err)
	}
}

func run(scale float64) error {
	fmt.Printf("sweeping 12 workloads x 3 structures at scale %.2f ...\n\n", scale)
	sw, err := ftspm.RunSweep(ftspm.Options{Scale: scale})
	if err != nil {
		return err
	}

	f4, err := experiments.Fig4(sw)
	if err != nil {
		return err
	}
	f5, sum5, err := experiments.Fig5(sw)
	if err != nil {
		return err
	}
	f6, _, _, err := experiments.Fig6(sw)
	if err != nil {
		return err
	}
	f7, dynSRAM, dynSTT, err := experiments.Fig7(sw)
	if err != nil {
		return err
	}
	f8, sum8, err := experiments.Fig8(sw)
	if err != nil {
		return err
	}
	perf, perfRatio, err := experiments.PerfOverhead(sw)
	if err != nil {
		return err
	}

	for _, t := range []*report.Table{f4, f5, f6, f7, f8, perf} {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	fmt.Println("Headlines:")
	fmt.Printf("  FTSPM is %.1fx less vulnerable than the pure SRAM SPM (paper: ~7x)\n", sum5.GeoMeanRatio)
	fmt.Printf("  FTSPM dynamic energy is %.0f%% below pure SRAM (paper 47%%) and %.0f%% below pure STT-RAM (paper 77%%)\n",
		(1-dynSRAM)*100, (1-dynSTT)*100)
	fmt.Printf("  FTSPM extends STT-RAM lifetime %.0fx (geo-mean; grows with trace length — see EXPERIMENTS.md)\n",
		sum8.GeoMeanRatio)
	fmt.Printf("  FTSPM runs at %.1f%% of the pure SRAM SPM's cycles (paper: <1%% overhead)\n", perfRatio*100)
	return nil
}
