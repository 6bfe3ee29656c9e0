// Casestudy reproduces the paper's Section IV motivational example end
// to end: Table I (profiling), Table II (MDA placement), Fig. 2 (the
// read/write distribution across the hybrid regions), and the scalar
// results (reliability 86% vs 62%, dynamic energy −44%, static −56%,
// negligible performance overhead).
//
// Run with:
//
//	go run ./examples/casestudy
package main

import (
	"fmt"
	"log"
	"os"

	"ftspm/internal/experiments"
	"ftspm/internal/report"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One evaluation of the case study backs every table below.
	study, err := experiments.RunCaseStudy(experiments.Options{Scale: 0.25})
	if err != nil {
		return err
	}

	for _, t := range []*report.Table{
		experiments.TableI(study), experiments.TableII(study), experiments.Fig2(study),
	} {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	cs := experiments.SectionIV(study)
	fmt.Println("Section IV headline results (paper values in parentheses):")
	fmt.Printf("  FTSPM reliability:     %s  (paper ~86%%)\n", report.Pct(cs.ReliabilityFTSPM))
	fmt.Printf("  baseline reliability:  %s  (paper ~62%%)\n", report.Pct(cs.ReliabilityBaseline))
	fmt.Printf("  dynamic energy:        %s of the SRAM baseline  (paper 56%%)\n", report.Pct(cs.DynamicVsSRAM))
	fmt.Printf("  static energy:         %s of the SRAM baseline  (paper 44%%)\n", report.Pct(cs.StaticVsSRAM))
	fmt.Printf("  performance overhead:  %s  (paper: negligible)\n", report.Pct(cs.PerfOverheadVsSRAM))
	return nil
}
