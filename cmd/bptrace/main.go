// bptrace generates, inspects, and characterizes branch traces.
//
// Usage:
//
//	bptrace list                          # available synthetic workloads
//	bptrace gen -workload espresso -n 1000000 -o espresso.bpt
//	bptrace stat -i espresso.bpt          # Table 1/2-style characterization
//	bptrace stat -workload mpeg_play -n 500000
//	bptrace convert -i espresso.bpt -o espresso.bpt2
//	bptrace convert -i espresso.bpt2 -o espresso.bpt -to bpt1
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"bpred/internal/trace"
	"bpred/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		cmdList()
	case "gen":
		cmdGen(os.Args[2:])
	case "stat":
		cmdStat(os.Args[2:])
	case "describe":
		cmdDescribe(os.Args[2:])
	case "convert":
		cmdConvert(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `bptrace: branch trace tool
subcommands:
  list                              list synthetic workload profiles
  gen  -workload NAME -n N -o FILE  generate a trace file
  stat (-i FILE | -workload NAME)   characterize a trace
  describe -workload NAME           show a synthetic program's static structure
  convert -i FILE -o FILE           transcode between BPT1 and BPT2 (streaming)`)
}

func cmdList() {
	fmt.Printf("%-11s %-11s %8s %7s %7s %14s\n",
		"name", "suite", "static", "hot50", "hot90", "paper-dyn-br")
	for _, p := range workload.Profiles() {
		fmt.Printf("%-11s %-11s %8d %7d %7d %14d\n",
			p.Name, p.Suite, p.Static, p.Hot50, p.Hot90, p.DynamicBranches)
	}
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "", "synthetic workload name")
	n := fs.Int("n", 1_000_000, "branch count")
	seed := fs.Uint64("seed", 1996, "workload seed")
	out := fs.String("o", "", "output trace file")
	fs.Parse(args)
	if *name == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "bptrace gen: -workload and -o are required")
		os.Exit(2)
	}
	p, ok := workload.ProfileByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bptrace gen: unknown workload %q\n", *name)
		os.Exit(2)
	}
	tr := workload.Generate(p, *seed, *n)
	if err := trace.WriteFile(*out, tr); err != nil {
		fmt.Fprintf(os.Stderr, "bptrace gen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d branches (%s)\n", *out, tr.Len(), tr.Name)
}

func cmdDescribe(args []string) {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	name := fs.String("workload", "", "synthetic workload name")
	seed := fs.Uint64("seed", 1996, "workload seed")
	fs.Parse(args)
	if *name == "" {
		fmt.Fprintln(os.Stderr, "bptrace describe: -workload is required")
		os.Exit(2)
	}
	p, ok := workload.ProfileByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bptrace describe: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Print(workload.Build(p, *seed).Summarize().Render())
}

// cmdConvert transcodes a trace between the row-oriented BPT1 format
// and the columnar block-compressed BPT2 format, streaming one batch
// of records at a time — it never holds the decoded trace, so
// converting a multi-gigabyte file costs a few hundred kilobytes of
// memory. The content
// digest is format-independent and printed for verification.
func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (BPT1 or BPT2, sniffed)")
	out := fs.String("o", "", "output trace file")
	to := fs.String("to", "bpt2", "target format: bpt1 or bpt2")
	blockLen := fs.Int("block", 0, "BPT2 records per block (0 = default)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "bptrace convert: -i and -o are required")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "bptrace convert: %v\n", err)
		os.Remove(*out)
		os.Exit(1)
	}

	rd, err := trace.OpenFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bptrace convert: %v\n", err)
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bptrace convert: %v\n", err)
		os.Exit(1)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	type branchWriter interface {
		WriteBranch(trace.Branch) error
		Close() error
	}
	var w branchWriter
	switch strings.ToLower(*to) {
	case "bpt2":
		w, err = trace.NewWriter2(bw, rd.Name(), rd.Instructions(), rd.Count(), *blockLen)
	case "bpt1":
		w, err = trace.NewWriter(bw, rd.Name(), rd.Instructions(), rd.Count())
	default:
		fmt.Fprintf(os.Stderr, "bptrace convert: unknown -to %q (want bpt1 or bpt2)\n", *to)
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	dw := trace.NewDigestWriter(rd.Name(), rd.Instructions(), rd.Count())
	buf := make([]trace.Branch, 4096)
	var n uint64
	for {
		batch := rd.NextBatch(buf)
		if len(batch) == 0 {
			break
		}
		n += uint64(len(batch))
		dw.WriteBatch(batch)
		for _, b := range batch {
			if err := w.WriteBranch(b); err != nil {
				fail(err)
			}
		}
	}
	if err := rd.Err(); err != nil {
		fail(err)
	}
	if n != rd.Count() {
		fail(fmt.Errorf("%s: truncated: %d of %d records", *in, n, rd.Count()))
	}
	if err := rd.Close(); err != nil {
		fail(err)
	}
	if err := w.Close(); err != nil {
		fail(err)
	}
	if err := bw.Flush(); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	inSt, _ := os.Stat(*in)
	outSt, _ := os.Stat(*out)
	sum := dw.Sum()
	fmt.Printf("wrote %s: %d branches, %d -> %d bytes, digest %x\n",
		*out, n, inSt.Size(), outSt.Size(), sum[:])
}

func cmdStat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	name := fs.String("workload", "", "synthetic workload name (alternative to -i)")
	n := fs.Int("n", 1_000_000, "branch count for synthetic workloads")
	seed := fs.Uint64("seed", 1996, "workload seed")
	fs.Parse(args)

	var tr *trace.Trace
	switch {
	case *in != "" && *name != "":
		fmt.Fprintln(os.Stderr, "bptrace stat: use -i or -workload, not both")
		os.Exit(2)
	case *in != "":
		var err error
		tr, err = trace.ReadFile(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bptrace stat: %v\n", err)
			os.Exit(1)
		}
	case *name != "":
		p, ok := workload.ProfileByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bptrace stat: unknown workload %q\n", *name)
			os.Exit(2)
		}
		tr = workload.Generate(p, *seed, *n)
	default:
		fmt.Fprintln(os.Stderr, "bptrace stat: -i or -workload is required")
		os.Exit(2)
	}

	s := trace.AnalyzeTrace(tr)
	fmt.Printf("trace:                 %s\n", s.Name)
	fmt.Printf("dynamic branches:      %d\n", s.Dynamic)
	fmt.Printf("represented instrs:    %d (branches %.1f%%)\n", s.Instructions, 100*s.BranchFraction())
	fmt.Printf("static branches:       %d\n", s.Static)
	fmt.Printf("taken rate:            %.2f%%\n", 100*s.TakenRate())
	fmt.Printf("branches for 50%%:      %d\n", s.StaticFor(0.5))
	fmt.Printf("branches for 90%%:      %d\n", s.StaticFor(0.9))
	b := s.CoverageBuckets([]float64{0.50, 0.40, 0.09, 0.01})
	fmt.Printf("coverage bands:        first 50%%: %d | next 40%%: %d | next 9%%: %d | last 1%%: %d\n",
		b[0], b[1], b[2], b[3])
	fmt.Printf(">=95%%-biased weight:   %.1f%% of instances\n", 100*s.HighlyBiasedFraction(0.95))
	top := s.Profiles()
	if len(top) > 5 {
		top = top[:5]
	}
	fmt.Println("hottest branches:")
	for _, p := range top {
		fmt.Printf("  %#010x  %9d instances  bias %.3f\n", p.PC, p.Count, p.Bias())
	}
}
