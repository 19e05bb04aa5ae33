// Command redscan reproduces the paper's §2.2 redundancy analysis on a
// synthetic app: it compiles the app at the baseline configuration, builds
// a suffix array over the binary code, and reports the estimated code-size
// reduction (Table 1), the sequence-length/repeat-count distribution
// (Figure 3), and the hottest repeated patterns (Observation 3, Figure 4).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/outline"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("redscan: ")
	var (
		appName = flag.String("app", "Wechat", "app profile name")
		scale   = flag.Float64("scale", 0.25, "app scale factor")
		bounded = flag.Bool("bounded", false, "apply the outliner's correctness constraints to the scan")
		top     = flag.Int("top", 5, "how many top repeats to disassemble")
	)
	flag.Parse()

	prof, ok := workload.AppByName(*appName, *scale)
	if !ok {
		log.Fatalf("unknown app %q", *appName)
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		log.Fatal(err)
	}
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{Optimize: true})
	if err != nil {
		log.Fatal(err)
	}

	a := outline.Analyze(methods, *bounded)
	fmt.Printf("%s: %d instruction words of binary code\n", app.Name, a.TotalWords)
	fmt.Printf("estimated reduction ratio (Table 1 model): %s (%d words)\n",
		report.Pct(a.EstimatedReduction), a.EstimatedSavedWords)

	fmt.Println("\nsequence length vs number of repeats (Figure 3):")
	lengths := make([]int, 0, len(a.OccurrencesByLength))
	for l := range a.OccurrencesByLength {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	for _, l := range lengths {
		if l > 24 {
			fmt.Printf("  (lengths above 24 omitted: %d more)\n", len(lengths)-24)
			break
		}
		fmt.Printf("  len %2d: %8s occurrences in %d families\n",
			l, report.Count(a.OccurrencesByLength[l]), a.RepeatFamilies[l])
	}

	pc := outline.CountPatterns(methods)
	fmt.Println("\nART-specific pattern sites (Figure 4):")
	fmt.Printf("  Java function call (ldr x30,[x0,#entry]; blr x30):  %s\n", report.Count(int64(pc.JavaCall)))
	fmt.Printf("  stack overflow check (sub x16,sp,#0x2000; ldr wzr): %s\n", report.Count(int64(pc.StackCheck)))
	fmt.Printf("  pAllocObjectResolved call (ldr x30,[x19,#o]; blr):  %s (all entrypoints: %s)\n",
		report.Count(int64(pc.NativeAlloc)), report.Count(int64(pc.NativeCall)))

	fmt.Println("\ntop repeated sequences:")
	for i, r := range a.Top {
		if i >= *top {
			break
		}
		fmt.Printf("  #%d: length %d, %d occurrences\n", i+1, r.Length, r.Count)
		for _, line := range a64.Disassemble(r.Words, 0) {
			fmt.Printf("      %s\n", line)
		}
	}
}
