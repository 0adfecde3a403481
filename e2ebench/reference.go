package main

import (
	"fmt"

	"bpred/internal/service"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
)

// cellSet maps a configuration fingerprint to its reference metrics.
type cellSet map[string]sim.Metrics

// sweepCells runs the sweep in process with sweep.Run and returns its
// cells.
func sweepCells(o sweep.Options, tr *trace.Trace) (cellSet, error) {
	surf, err := sweep.Run(o, tr)
	if err != nil {
		return nil, err
	}
	cells := cellSet{}
	for _, c := range sweep.Configs(o) {
		p, ok := surf.At(c.TableBits(), c.RowBits)
		if !ok {
			return nil, fmt.Errorf("reference sweep has no cell %s", c.Fingerprint())
		}
		cells[c.Fingerprint()] = p.Metrics
	}
	return cells, nil
}

// warmupReferences returns the sweep's cells under each warmup.
//
// Warmup only stops the leading branches from being scored; the
// predictor trains on them all the same. So the cells under warmup w
// are those of a warmup-0 pass over the whole trace minus those of a
// warmup-0 pass over its first w branches, and one full pass serves
// every op of a cold workload instead of one per op. The first warmup
// is also computed directly with sweep.Run and must agree, which
// checks that premise on every run.
func warmupReferences(o sweep.Options, tr *trace.Trace, warmups []int) (map[int]cellSet, error) {
	o.Sim.Warmup = 0
	full, err := sweepCells(o, tr)
	if err != nil {
		return nil, err
	}
	refs := make(map[int]cellSet, len(warmups))
	for _, w := range warmups {
		if w <= 0 || w >= tr.Len() {
			return nil, fmt.Errorf("warmup %d outside (0, %d)", w, tr.Len())
		}
		prefix, err := sweepCells(o, tr.Slice(0, w))
		if err != nil {
			return nil, err
		}
		cells := cellSet{}
		for fp, m := range full {
			p := prefix[fp]
			cells[fp] = sim.Metrics{
				Name:        m.Name,
				Branches:    m.Branches - p.Branches,
				Mispredicts: m.Mispredicts - p.Mispredicts,
			}
		}
		refs[w] = cells
	}
	if len(warmups) > 0 {
		o.Sim.Warmup = warmups[0]
		direct, err := sweepCells(o, tr)
		if err != nil {
			return nil, err
		}
		for fp, m := range direct {
			if refs[warmups[0]][fp] != m {
				return nil, fmt.Errorf("derived reference for %s at warmup %d is %+v, direct sweep gives %+v",
					fp, warmups[0], refs[warmups[0]][fp], m)
			}
		}
	}
	return refs, nil
}

// check compares a job result with its reference: the result must be
// complete and hold exactly the configurations the job enumerates,
// each with the reference's name, branch count, mispredict count, and
// rate.
func check(o sweep.Options, want cellSet, res *service.JobResult) error {
	configs := sweep.Configs(o)
	if res.Partial || res.CellsTotal != len(configs) || len(res.Cells) != len(configs) {
		return fmt.Errorf("result has %d of %d cells (partial=%v), want %d",
			len(res.Cells), res.CellsTotal, res.Partial, len(configs))
	}
	got := make(map[string]service.CellResult, len(res.Cells))
	for _, c := range res.Cells {
		got[c.Fingerprint] = c
	}
	for _, c := range configs {
		fp := c.Fingerprint()
		m, ok := want[fp]
		if !ok {
			return fmt.Errorf("no reference for %s", fp)
		}
		cell, ok := got[fp]
		switch {
		case !ok:
			return fmt.Errorf("result lacks %s", fp)
		case cell.Name != m.Name || cell.Branches != m.Branches || cell.Mispredicts != m.Mispredicts ||
			cell.MispredictRate != m.MispredictRate():
			return fmt.Errorf("cell %s is %s %d/%d (%v), reference %s %d/%d (%v)", fp,
				cell.Name, cell.Mispredicts, cell.Branches, cell.MispredictRate,
				m.Name, m.Mispredicts, m.Branches, m.MispredictRate())
		}
	}
	return nil
}
