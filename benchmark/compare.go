package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// errIncorrect is returned when verdicts failed the oracle; errWorse when a
// comparison found a regression. Both end the process with status 1 after
// the report was printed.
var (
	errIncorrect = errors.New("verdicts failed the oracle")
	errWorse     = errors.New("comparison found a regression")
)

// Verdicts of a comparison, per (metric, workload).
const (
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first, second and third quartile of a sample the
// way Python's statistics.quantiles(v, n=4) does (exclusive method). A
// sample of one reads as that value three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j, delta := i*m/n, i*m%n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

// judge compares a metric's samples from a parent (a) and a change (b):
// unresolved when either side's own spread (interquartile distance over
// median) is wider than the bound, worse when b's median is worse than a's
// by more than the bound, within-bound otherwise.
func judge(def metricDef, a, b []float64) (verdict string, worsening float64) {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	if a2 == 0 {
		return verdictUnresolved, 0
	}
	worsening = (b2 - a2) / a2
	if def.Better == "higher" {
		worsening = -worsening
	}
	spread := (a3 - a1) / a2
	if b2 != 0 && (b3-b1)/b2 > spread {
		spread = (b3 - b1) / b2
	}
	switch {
	case spread > def.Bound:
		return verdictUnresolved, worsening
	case worsening > def.Bound:
		return verdictWorse, worsening
	}
	return verdictWithin, worsening
}

func loadResult(path string) (resultFile, error) {
	var rf resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles prints, per (metric, workload), both medians and quartiles
// and the verdict, and fails on any worse metric or a higher failure count.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  commit %s  %s  GOMAXPROCS %d  %d runs x %d s\n", pathA, a.Meta.Commit, a.Meta.GoVersion, a.Meta.GOMAXPROCS, a.Meta.Runs, a.Meta.Seconds)
	fmt.Fprintf(w, "B: %s  commit %s  %s  GOMAXPROCS %d  %d runs x %d s\n", pathB, b.Meta.Commit, b.Meta.GoVersion, b.Meta.GOMAXPROCS, b.Meta.Runs, b.Meta.Seconds)
	regressed := false
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "\n%s: missing from one file\n", wl.name)
			regressed = true
			continue
		}
		fmt.Fprintf(w, "\n%s  failed A %d/%d  B %d/%d\n", wl.name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "  more failed layers in B: %s\n", verdictWorse)
			regressed = true
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(w, "  %-24s missing from one file\n", def.Name)
				regressed = true
				continue
			}
			a1, a2, a3 := quartiles(sa.Values)
			b1, b2, b3 := quartiles(sb.Values)
			verdict, worsening := judge(def, sa.Values, sb.Values)
			fmt.Fprintf(w, "  %-24s A %11.4f [%.4f %.4f] n=%-3d B %11.4f [%.4f %.4f] n=%-3d %+6.1f %% of bound %2.0f %%  %s\n",
				def.Name, a2, a1, a3, len(sa.Values), b2, b1, b3, len(sb.Values), 100*worsening, 100*def.Bound, verdict)
			regressed = regressed || verdict == verdictWorse
		}
	}
	if regressed {
		return errWorse
	}
	return nil
}
