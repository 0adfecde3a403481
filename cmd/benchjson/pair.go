package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// pairStat is one series over paired rounds, in its speed unit (MB/s,
// or ops/s): round i of the base and of the change ran back to back on
// one host, so their ratio cancels the drift both runs shared.
type pairStat struct {
	series
	unit                                      string
	rounds, wins, losses                      int
	baseMed, baseQ1, baseQ3, changeMed, ratio float64 // ratio: median change/base
}

// failed reports a series slower in at least 8 of 10 rounds (scaled to
// the round count) whose median is below the base's lower quartile.
func (p pairStat) failed() bool {
	return p.losses*10 >= 8*p.rounds && p.changeMed < p.baseQ1
}

// pairStats pairs each series of the base with the change's. Files of
// appended runs repeat a series once per run, so round i is its i-th
// occurrence on each side. Unequal counts pair the common prefix;
// series one side lacks are skipped.
func pairStats(base, change Doc) []pairStat {
	speeds := func(doc Doc) (map[series][]float64, map[series]string) {
		by, units := map[series][]float64{}, map[series]string{}
		for _, r := range doc.Results {
			if v, unit, ok := speed(r.Metrics); ok {
				by[r.series()] = append(by[r.series()], v)
				units[r.series()] = unit
			}
		}
		return by, units
	}
	b, bunits := speeds(base)
	c, cunits := speeds(change)
	var stats []pairStat
	for _, r := range base.Results {
		id := r.series()
		n := min(len(b[id]), len(c[id]))
		bs, cs := b[id][:n], c[id][:n]
		delete(b, id) // the series' later rounds
		if n == 0 || bunits[id] != cunits[id] {
			continue
		}
		p := pairStat{series: id, unit: bunits[id], rounds: n}
		ratios := make([]float64, n)
		for i := range ratios {
			ratios[i] = cs[i] / bs[i]
			if ratios[i] > 1 {
				p.wins++
			} else if ratios[i] < 1 {
				p.losses++
			}
		}
		p.baseMed, p.baseQ1, p.baseQ3 = quantile(bs, 0.5), quantile(bs, 0.25), quantile(bs, 0.75)
		p.changeMed, p.ratio = quantile(cs, 0.5), quantile(ratios, 0.5)
		stats = append(stats, p)
	}
	return stats
}

// quantile returns the q-quantile of xs, interpolating linearly
// between the two closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// runPair is the -pair mode: one line per series, exit 1 when any
// series failed.
func runPair(basePath, changePath string, stdout, stderr io.Writer) int {
	var docs [2]Doc
	for i, path := range []string{basePath, changePath} {
		f, err := os.Open(path)
		if err == nil {
			docs[i], err = parse(bufio.NewScanner(f))
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %s: %v\n", path, err)
			return 1
		}
	}
	stats := pairStats(docs[0], docs[1])
	if len(stats) == 0 {
		fmt.Fprintln(stderr, "benchjson: no series with MB/s or ns/op in both runs")
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "series\tprocs\tunit\tbase\tbase q1\tbase q3\tchange\tratio\twins\t")
	failures := 0
	for _, p := range stats {
		verdict := ""
		if p.failed() {
			verdict, failures = "SLOWER", failures+1
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\t%d/%d\t%s\n",
			p.name, p.procs, p.unit, p.baseMed, p.baseQ1, p.baseQ3, p.changeMed, p.ratio, p.wins, p.rounds, verdict)
	}
	tw.Flush()
	if failures > 0 {
		fmt.Fprintf(stderr, "benchjson: FAIL: %d series slower in 8 of 10 rounds with the median below the base's lower quartile\n", failures)
		return 1
	}
	return 0
}
