package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
)

type metricKey struct{ workload, metric string }

type metricVals struct {
	unit   string
	values []float64
}

// groupMetrics gathers every kept result's metric and timing values
// by workload and name.
func groupMetrics(results []*result, keep func(*result) bool) map[metricKey]*metricVals {
	out := make(map[metricKey]*metricVals)
	for _, r := range results {
		if !keep(r) {
			continue
		}
		for _, set := range []map[string]metric{r.Metrics, r.Timings} {
			for name, m := range set {
				k := metricKey{r.Workload, name}
				if out[k] == nil {
					out[k] = &metricVals{unit: m.Unit}
				}
				out[k].values = append(out[k].values, m.Value)
			}
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the contract's steadiness
// measure). It needs at least two values.
func spread(values []float64) (float64, bool) {
	m := len(values)
	if m < 2 {
		return 0, false
	}
	s := slices.Sorted(slices.Values(values))
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), medianFloat(s)), true
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, per workload and metric, both reports'
// medians, how much worse the second is, the bound, and each side's
// run-to-run spread where a report holds several runs. It fails when
// the second report breaches the bound of an end-to-end metric; the
// timings have none and are only shown.
func compareReports(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	untraced := func(r *result) bool { return !r.Traced }
	ga, gb := groupMetrics(a.Results, untraced), groupMetrics(b.Results, untraced)
	fmt.Printf("%-18s %-14s %14s %14s %9s %7s %9s %9s\n", "workload", "metric", "a (median)", "b (median)", "b worse", "bound", "spread a", "spread b")
	breaches, compared := 0, 0
	for _, s := range specs {
		for _, d := range slices.Concat(endToEnd, timings) {
			va, vb := ga[metricKey{s.name, d.Name}], gb[metricKey{s.name, d.Name}]
			if va == nil || vb == nil {
				continue
			}
			compared++
			ma, mb := medianFloat(va.values), medianFloat(vb.values)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			gated := d.Bound > 0
			bound, flags := "-", ""
			if gated {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			if gated && worse > d.Bound {
				flags += " BREACH"
				breaches++
			}
			cell := func(vals []float64) string {
				sp, ok := spread(vals)
				if !ok {
					return "-"
				}
				if gated && sp > d.Bound {
					flags += " UNSTEADY"
				}
				return fmt.Sprintf("%.2f%%", 100*sp)
			}
			sa, sb := cell(va.values), cell(vb.values)
			fmt.Printf("%-18s %-14s %14.4f %14.4f %+8.2f%% %7s %9s %9s%s\n",
				s.name, d.Name, ma, mb, 100*worse, bound, sa, sb, flags)
		}
	}
	if compared == 0 {
		return errors.New("the reports share no untraced result")
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", breaches)
	}
	return nil
}
