// Command xft-bench regenerates the tables and figures of "XFT:
// Practical Fault Tolerance Beyond Crashes" (OSDI 2016) on the
// deterministic WAN simulator.
//
// Usage:
//
//	xft-bench [-full] <experiment> [experiment...]
//	xft-bench all
//
// Experiments: fig2 fig6 fig7a fig7b fig7c fig8 fig9 fig10
//
//	table1 table2 table3 table5678 batchverify tlsoverhead
//	arena
//
// By default experiments run at "quick" scale (seconds); -full runs
// the paper-sized sweeps (minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/xft-consensus/xft/internal/bench"
)

func main() {
	full := flag.Bool("full", false, "run full-scale (paper-sized) sweeps")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if args[0] == "campaign" {
		os.Exit(runCampaign(args[1:]))
	}
	sc := bench.Scale{Quick: !*full}
	if args[0] == "all" {
		args = []string{"table1", "table2", "table3", "fig2", "fig6", "fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10", "table5678"}
	}
	for _, name := range args {
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		switch name {
		case "fig2", "fig6":
			bench.PatternReport(os.Stdout)
		case "fig7a":
			bench.Fig7(os.Stdout, "a", sc)
		case "fig7b":
			bench.Fig7(os.Stdout, "b", sc)
		case "fig7c":
			bench.Fig7(os.Stdout, "c", sc)
		case "fig8":
			bench.Fig8(os.Stdout, sc)
		case "fig9":
			bench.Fig9(os.Stdout, sc)
		case "fig10":
			bench.Fig10(os.Stdout, sc)
		case "table1":
			bench.Table1(os.Stdout)
		case "table2":
			bench.Table2(os.Stdout)
		case "table3":
			bench.Table3Report(os.Stdout, sc)
		case "table5678", "table5", "table6", "table7", "table8":
			bench.Tables5to8(os.Stdout)
		case "batchverify":
			bench.BatchVerifyReport(os.Stdout, sc)
		case "tlsoverhead":
			bench.TLSOverhead(os.Stdout, sc)
		case "arena":
			bench.Arena(os.Stdout, sc)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xft-bench [-full] <experiment>...
       xft-bench campaign [flags]   (see: xft-bench campaign -h)
experiments: all fig2 fig6 fig7a fig7b fig7c fig8 fig9 fig10 table1 table2 table3 table5678 batchverify tlsoverhead arena`)
}
